(* Kill-and-resume integration check for the shard journal.

   The alcotest suite exercises resume by deleting shard files; this
   harness exercises the real failure mode: a campaign process dying
   mid-run.  The parent re-executes itself as a child whose checkpoint
   commit hook hard-kills the process (Unix._exit, no atexit, no
   flushing) right after the first shard reaches the journal (holding
   back any other domain's commit meanwhile), asserts
   the child died with that exit code, then resumes the campaign from
   the surviving journal and requires the merged records to be
   bit-identical to an uninterrupted run — for jobs = 1 and jobs = 4. *)

open Xentry_faultinject
open Xentry_store
module Tm = Xentry_util.Telemetry

let kill_code = 137

let config =
  Campaign.Config.make ~benchmark:Xentry_workload.Profile.Postmark
    ~injections:300 ~seed:77 ()

let nshards =
  (config.Campaign.injections + Campaign.shard_size - 1) / Campaign.shard_size

let checkpoint dir =
  match Journal.for_campaign ~dir config with
  | Ok cp -> cp
  | Error e ->
      prerr_endline ("store_crash: " ^ Journal.open_error_message e);
      exit 1

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("store_crash: FAIL: " ^ msg);
      exit 1)
    fmt

(* --- child: run the campaign, die right after the first commit ------------- *)

let run_child dir jobs =
  let cp = checkpoint dir in
  let committed = Atomic.make 0 in
  let killing =
    {
      Campaign.lookup = cp.Campaign.lookup;
      commit =
        (fun index records ->
          if Atomic.fetch_and_add committed 1 = 0 then begin
            cp.Campaign.commit index records;
            Unix._exit kill_code
          end
          else
            (* The process is dying: a shard that finishes meanwhile on
               another domain never reaches the journal, as if the kill
               beat its commit.  Without this, shards finishing
               together could all commit before [_exit] lands. *)
            while true do
              Unix.sleepf 1.0
            done);
    }
  in
  ignore
    (Campaign.execute ~checkpoint:killing
       { config with Campaign.jobs = Some jobs });
  fail "child campaign finished without being killed"

(* --- parent: crash the child, resume, compare ------------------------------ *)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun q -> rm_rf (Filename.concat p q)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let crash_and_resume ~plain jobs =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xentry-store-crash-%d-j%d" (Unix.getpid ()) jobs)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--child"; dir; string_of_int jobs |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED c when c = kill_code -> ()
  | Unix.WEXITED c -> fail "jobs=%d: child exited %d, expected %d" jobs c kill_code
  | Unix.WSIGNALED s -> fail "jobs=%d: child killed by signal %d" jobs s
  | Unix.WSTOPPED s -> fail "jobs=%d: child stopped by signal %d" jobs s);
  let survivors =
    match
      Journal.open_ ~dir ~fingerprint:(Journal.campaign_fingerprint config)
    with
    | Ok j -> Journal.shards_present j
    | Error e -> fail "jobs=%d: %s" jobs (Journal.open_error_message e)
  in
  let n_survivors = List.length survivors in
  if n_survivors < 1 then fail "jobs=%d: no shard survived the crash" jobs;
  if n_survivors >= nshards then
    fail "jobs=%d: all %d shards journaled; the kill came too late" jobs
      n_survivors;
  (* Resume with telemetry on: every surviving shard must replay from
     the journal rather than recompute. *)
  Tm.reset ();
  Tm.enable ();
  let skipped = Tm.counter "store.journal.shards_skipped" in
  let committed = Tm.counter "store.journal.shards_committed" in
  let resumed =
    Campaign.execute ~checkpoint:(checkpoint dir)
      { config with Campaign.jobs = Some jobs }
  in
  Tm.disable ();
  if Tm.counter_value skipped <> n_survivors then
    fail "jobs=%d: resumed %d journaled shards but skipped counter says %d"
      jobs n_survivors (Tm.counter_value skipped);
  if Tm.counter_value committed <> nshards - n_survivors then
    fail "jobs=%d: expected %d fresh commits, counter says %d" jobs
      (nshards - n_survivors)
      (Tm.counter_value committed);
  if resumed <> plain then
    fail "jobs=%d: resumed records diverge from the uninterrupted run" jobs;
  Printf.printf
    "store_crash: jobs=%d ok (%d/%d shards survived the kill; resume \
     bit-identical)\n"
    jobs n_survivors nshards

let () =
  match Sys.argv with
  | [| _; "--child"; dir; jobs |] -> run_child dir (int_of_string jobs)
  | _ ->
      let plain = Campaign.execute { config with Campaign.jobs = Some 1 } in
      List.iter (crash_and_resume ~plain) [ 1; 4 ];
      print_endline "store_crash: all checks passed"
