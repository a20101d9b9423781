(* End-to-end distributed-campaign check: the -j invariant lifted to
   processes.

   The parent re-executes itself as worker processes speaking the
   cluster protocol over a Unix-domain socket and requires, for every
   topology, records bit-identical to a single-process run:

   1. coordinator + 2 workers, clean run;
   2. coordinator + 2 workers with a journal, SIGKILL one worker the
      moment the first shard completes — the dead worker's leases must
      be reissued and the merged records must still match;
   3. resume over the journal the killed run left behind: every shard
      must replay from disk (zero recomputation), still bit-identical. *)

open Xentry_faultinject
open Xentry_store
open Xentry_cluster
module Tm = Xentry_util.Telemetry

let config =
  Campaign.Config.make ~benchmark:Xentry_workload.Profile.Postmark
    ~injections:300 ~seed:91 ()

let nshards = List.length (Campaign.shard_plan config)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("cluster_smoke: FAIL: " ^ msg);
      exit 1)
    fmt

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun q -> rm_rf (Filename.concat p q)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let in_scratch name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xentry-cluster-smoke-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let spawn_worker sock =
  Unix.create_process Sys.executable_name
    [| Sys.executable_name; "--worker"; sock; "2" |]
    Unix.stdin Unix.stdout Unix.stderr

(* Kill before waiting: workers are stateless once records merged, and
   a straggler that missed the campaign entirely must not stall the
   test through its connect retries. *)
let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let run_distributed ?checkpoint ?on_progress ~name dir =
  let sock = Filename.concat dir "coord.sock" in
  let pids = List.init 2 (fun _ -> spawn_worker sock) in
  match
    Coordinator.run ?checkpoint ?on_progress ~idle_timeout_s:30.
      ~listen:(Protocol.Unix_sock sock) config
  with
  | records ->
      List.iter reap pids;
      (records, pids)
  | exception e ->
      List.iter (fun pid -> try Unix.kill pid Sys.sigkill with _ -> ()) pids;
      List.iter reap pids;
      fail "%s: coordinator failed: %s" name (Printexc.to_string e)

let checkpoint dir =
  match Journal.for_campaign ~dir config with
  | Ok cp -> cp
  | Error e -> fail "journal: %s" (Journal.open_error_message e)

(* Every process, workers included, runs under the watchdog: a hang
   must fail the run with a message, and an orphaned hung worker would
   otherwise hold the test's output open. *)
let watchdog_s = 300.

let () =
  match Sys.argv with
  | [| _; "--worker"; sock; jobs |] ->
      Watchdog.run ~seconds:watchdog_s "cluster_smoke worker" (fun () ->
          Worker.run ~jobs:(int_of_string jobs)
            ~connect:(Protocol.Unix_sock sock) ())
  | _ ->
      Watchdog.run ~seconds:watchdog_s "cluster_smoke" @@ fun () ->
      let baseline = Campaign.execute { config with Campaign.jobs = Some 1 } in
      (* 1: clean distributed run. *)
      in_scratch "clean" (fun dir ->
          let records, _ = run_distributed ~name:"clean" dir in
          if records <> baseline then
            fail "clean: distributed records diverge from single-process run";
          Printf.printf "cluster_smoke: clean 2-worker run bit-identical (%d shards)\n%!"
            nshards);
      (* 2: kill one worker as soon as the first shard lands. *)
      in_scratch "kill" (fun dir ->
          let journal_dir = Filename.concat dir "journal" in
          let killed = ref false in
          let victim = ref None in
          let on_progress (p : Coordinator.progress) =
            if (not !killed) && p.Coordinator.completed < p.Coordinator.total
            then begin
              killed := true;
              match !victim with
              | Some pid -> ( try Unix.kill pid Sys.sigkill with _ -> ())
              | None -> ()
            end
          in
          let sock = Filename.concat dir "coord.sock" in
          let pids = List.init 2 (fun _ -> spawn_worker sock) in
          victim := Some (List.hd pids);
          (match
             Coordinator.run ~checkpoint:(checkpoint journal_dir) ~on_progress
               ~idle_timeout_s:30. ~listen:(Protocol.Unix_sock sock) config
           with
          | records ->
              List.iter reap pids;
              if not !killed then fail "kill: no shard ever completed";
              if records <> baseline then
                fail "kill: records after worker kill diverge from baseline"
          | exception e ->
              List.iter
                (fun pid -> try Unix.kill pid Sys.sigkill with _ -> ())
                pids;
              List.iter reap pids;
              fail "kill: coordinator failed: %s" (Printexc.to_string e));
          Printf.printf
            "cluster_smoke: mid-campaign SIGKILL survived, records bit-identical\n%!";
          (* 3: the journal the killed run wrote must now resume a
             single-process campaign with zero recomputation. *)
          Tm.reset ();
          Tm.enable ();
          let skipped = Tm.counter "store.journal.shards_skipped" in
          let resumed =
            Campaign.execute
              ~checkpoint:(checkpoint journal_dir)
              { config with Campaign.jobs = Some 1 }
          in
          Tm.disable ();
          if resumed <> baseline then
            fail "resume: journal replay diverges from baseline";
          if Tm.counter_value skipped <> nshards then
            fail "resume: expected all %d shards journaled, skipped only %d"
              nshards (Tm.counter_value skipped);
          Printf.printf
            "cluster_smoke: resume replayed all %d shards from the journal\n%!"
            nshards);
      print_endline "cluster_smoke: all checks passed"
