(* Telemetry smoke test (runtest alias `telemetry-smoke`).

   Runs a small fault-injection campaign with telemetry enabled at
   jobs=1 and jobs=4 and checks that:

   - the campaign records are bit-identical across worker counts
     (telemetry must never perturb results);
   - the exported JSONL is well-formed (every line a JSON object,
     meta line first with the expected schema tag);
   - the export covers the metric families the campaign reports:
     exit-reason counters, TLB hit/miss counters, per-shard wall
     times and detector comparison histograms.

   Before any of that, while every metric handle in the process is
   still untouched, several domains released together record into
   every module-level handle at once: the first touch of a handle must
   be domain-safe (a [lazy] handle raised [Lazy.Undefined] here). *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A tiny decision tree (incorrect iff RT > 100), enough to exercise
   the detector path and its comparison histogram. *)
let toy_detector () =
  let open Xentry_mlearn in
  let samples =
    List.concat
      [
        List.init 30 (fun i ->
            { Dataset.features = [| 0.0; 50.0 +. float_of_int i; 5.0; 5.0; 5.0 |];
              label = 0 });
        List.init 30 (fun i ->
            { Dataset.features = [| 0.0; 150.0 +. float_of_int i; 5.0; 5.0; 5.0 |];
              label = 1 });
      ]
  in
  let tree =
    Tree.train
      (Dataset.create ~feature_names:Xentry_core.Features.names ~n_classes:2
         samples)
  in
  Xentry_core.Detector.v0 (Xentry_core.Transition_detector.of_tree tree)

module Tm = Xentry_util.Telemetry

(* Everything one racing domain does: each step records into handles
   of a different module (hypervisor, detector, micro-reboot, pool,
   campaign, serve engine). *)
let touch_every_handle detector =
  let open Xentry_core in
  let pipeline = Pipeline.Config.make ~detector () in
  let host = Pipeline.create_host ~seed:5 pipeline in
  let stream =
    Xentry_workload.Stream.create
      (Xentry_workload.Profile.get Xentry_workload.Profile.Postmark)
      Xentry_workload.Profile.PV (Xentry_util.Rng.create 5)
  in
  let req = Xentry_workload.Stream.next_request stream in
  ignore (Pipeline.run pipeline ~host ~retire:true req : Pipeline.outcome);
  let module Mb = Xentry_recover.Microboot in
  let image = Mb.capture_image host in
  let req = Xentry_workload.Stream.next_request stream in
  Xentry_vmm.Hypervisor.prepare host req;
  ignore (Mb.reboot image (Mb.capture host req) : Xentry_vmm.Hypervisor.t);
  ignore
    (Xentry_util.Pool.parallel_map ~jobs:2 succ [| 1; 2; 3; 4 |] : int array);
  let tiny =
    Xentry_faultinject.Campaign.Config.make ~detector
      ~benchmark:Xentry_workload.Profile.Postmark ~injections:4 ~seed:3 ()
  in
  (match Xentry_faultinject.Campaign.shard_plan tiny with
  | (_, shard) :: _ -> ignore (Xentry_faultinject.Campaign.run_shard shard)
  | [] -> ());
  let module Serve = Xentry_serve.Server in
  ignore
    (Serve.run
       (Serve.make ~pipeline ~benchmark:Xentry_workload.Profile.Postmark
          ~streams:2 ~jobs:2 ~duration_s:0.2 ~recovery:Serve.Microboot
          ~storm:{ Serve.storm_start = 0.; storm_end = 0.2; storm_prob = 0.5 }
          ~seed:5 ~rate:2000. ())
      : Serve.summary)

let race_first_touch detector =
  let racers = 4 in
  let ready = Atomic.make 0 in
  Tm.enable ();
  let domains =
    List.init racers (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < racers do
              Domain.cpu_relax ()
            done;
            touch_every_handle detector))
  in
  List.iter
    (fun d ->
      try Domain.join d
      with e ->
        fail "concurrent first touch of telemetry handles raised %s"
          (Printexc.to_string e))
    domains;
  Tm.disable ();
  List.iter
    (fun name ->
      if Tm.histogram_count (Tm.histogram name) = 0 then
        fail "racing domains recorded nothing into %S" name)
    [ "hv.steps"; "detector.comparisons"; "recover.reboot_ns";
      "pool.item.ns"; "pool.queue_wait.ns"; "campaign.shard.ns";
      "serve.latency_us"; "serve.degraded_level" ];
  Tm.reset ()

let () =
  let detector = toy_detector () in
  (* The race runs serve engines, whose idle workers block on a
     doorbell: a lost wake-up must fail, not hang. *)
  Watchdog.run ~seconds:300. "telemetry_smoke race" (fun () ->
      race_first_touch detector);
  let config =
    Xentry_faultinject.Campaign.Config.make ~detector
      ~benchmark:Xentry_workload.Profile.Postmark ~injections:250 ~seed:23 ()
  in
  (* Baseline without telemetry, then telemetry-enabled runs at two
     worker counts: all three must agree exactly. *)
  let with_jobs j = { config with Xentry_faultinject.Campaign.jobs = Some j } in
  let baseline = Xentry_faultinject.Campaign.execute (with_jobs 1) in
  Tm.enable ();
  let r1 = Xentry_faultinject.Campaign.execute (with_jobs 1) in
  let r4 = Xentry_faultinject.Campaign.execute (with_jobs 4) in
  let path = Filename.temp_file "xentry_telemetry_smoke" ".jsonl" in
  Tm.export_file path;
  Tm.disable ();
  if r1 <> baseline then fail "telemetry-enabled records differ from baseline";
  if r4 <> baseline then fail "jobs=4 records differ from jobs=1";
  let lines = read_lines path in
  (match lines with
  | [] -> fail "telemetry export is empty"
  | meta :: _ ->
      if not (contains meta "\"type\": \"meta\"") then
        fail "first line is not a meta record: %s" meta;
      if not (contains meta "xentry-telemetry-v1") then
        fail "meta line missing schema tag: %s" meta);
  List.iteri
    (fun i line ->
      let n = String.length line in
      if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then
        fail "line %d is not a JSON object: %s" (i + 1) line)
    lines;
  let all = String.concat "\n" lines in
  List.iter
    (fun name ->
      if not (contains all ("\"" ^ name ^ "\"")) then
        fail "export missing metric %S" name)
    [ "hv.exit.softirq"; "hv.steps";
      "memory.tlb.read.hit"; "memory.tlb.read.miss";
      "memory.tlb.write.hit"; "memory.tlb.write.miss";
      "campaign.shard.ns"; "campaign.run.ns"; "campaign.shard";
      "detector.comparisons"; "pool.item.ns" ];
  Sys.remove path;
  Printf.printf "telemetry-smoke OK: %d records, %d JSONL lines\n"
    (List.length baseline) (List.length lines)
