(* The repository benchmark: four named workloads, one command.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Workloads (why each was chosen is in README.md):
     campaign-dense    postmark PV, reg1 faults, 64 faults per golden
                       run, fuel 2000, planner on, 2 domains
     campaign-sparse   mcf PV, all six fault classes, 1 fault per
                       golden run, fuel 20000, 2 domains
     serve-steady      in-process Server, 1 worker domain, postmark PV,
                       8 streams, open loop at a fixed 10k req/s
     campaign-cluster  campaign-dense's config through the Coordinator
                       over 2 worker processes x 1 domain

   Every run trains the detector (set-up, repeated), measures the
   workload for S seconds untraced, and checks its outputs against the
   repository's identity oracles outside the timed region.  With
   --trace 1 it also runs the workload again with telemetry and the
   benchmark's own spans on, probes each layer on the workload's
   request stream, and reports per-layer metrics instead of
   end-to-end ones.  The last stdout line is the result object; the
   full record (failed checks included, on every exit) is written
   under .xbench-out/. *)

open Xentry_faultinject
module M = Meter
module Profile = Xentry_workload.Profile
module Hypervisor = Xentry_vmm.Hypervisor
module Cpu = Xentry_machine.Cpu
module Pipeline = Xentry_core.Pipeline
module Detector = Xentry_core.Detector
module Features = Xentry_core.Features
module Codec = Xentry_store.Codec
module Server = Xentry_serve.Server
module Coordinator = Xentry_cluster.Coordinator
module CP = Xentry_cluster.Protocol
module Pool = Xentry_util.Pool
module Rng = Xentry_util.Rng

(* --- fixed workload parameters ------------------------------------------- *)

let domains = 2
let setup_reps = 5
let train_injections_per_benchmark = 500
let dense_chunk = 1000 (* golden runs per campaign call *)
let sparse_chunk = 5000
let cluster_chunk = 2000
let serve_rate = 10_000.
let serve_streams = 8

(* Per-stream ingress bound: 8 x 1024 queued requests ride out a
   0.8 s stall of the shared host at 10k req/s, so a steady run sheds
   nothing (the default 64 sheds after a 50 ms stall). *)
let serve_queue_capacity = 1024
let slo_us = 1000.
let serve_windows = 10
let probe_requests = 2000

(* Campaign calls whose peak resident set makes [peak_rss_mib].  The
   resident set climbs with every call a process makes (dense: ~100 MiB
   at call 10, ~140 MiB at call 70), so the metric is read on the same
   calls in every run, however many a run fits in its time. *)
let rss_calls = 12

type workload = Dense | Sparse | Serve | Cluster

let workloads =
  [
    ("campaign-dense", Dense);
    ("campaign-sparse", Sparse);
    ("serve-steady", Serve);
    ("campaign-cluster", Cluster);
  ]

let benchmark_of = function
  | Dense | Serve | Cluster -> Profile.Postmark
  | Sparse -> Profile.Mcf

let campaign_config w ~detector ~seed =
  match w with
  | Dense | Cluster | Serve ->
      Campaign.Config.make ~detector ~fault_classes:[ Fault.Reg_single_bit ]
        ~fuel:2000 ~faults_per_run:64 ~prune:true ~jobs:domains
        ~benchmark:Profile.Postmark
        ~injections:(if w = Cluster then cluster_chunk else dense_chunk)
        ~seed ()
  | Sparse ->
      Campaign.Config.make ~detector
        ~fault_classes:(Array.to_list Fault.all_classes)
        ~faults_per_run:1 ~prune:true ~jobs:domains ~benchmark:Profile.Mcf
        ~injections:sparse_chunk ~seed ()

(* --- results ------------------------------------------------------------- *)

let failed_checks : string list ref = ref []
let failed_ops = ref 0

let check name ok =
  if not ok then begin
    failed_checks := name :: !failed_checks;
    Printf.eprintf "CHECK FAILED: %s\n%!" name
  end

let metrics : (string * float * string) list ref = ref []

let metric name unit v =
  if Float.is_finite v then metrics := (name, v, unit) :: !metrics
  else begin
    check (Printf.sprintf "metric %s is not finite" name) false;
    metrics := (name, 0., unit) :: !metrics
  end

let encode (codec : 'a Codec.t) v =
  let b = Buffer.create 4096 in
  codec.Codec.write b v;
  Buffer.contents b

let encode_records = encode Codec.outcome_records
let slice l ~lo ~hi = List.filteri (fun i _ -> i >= lo && i < hi) l

(* --- set-up: detector training, host build, worker handshake ------------- *)

type setup = {
  detector : Detector.t;
  setup_s : float;
  collect_s : float;
  fit_s : float;
}

let out_dir = ".xbench-out"

(* The benchmark binary is its own cluster worker (see the entry point
   below).  Workers write to stderr so stdout keeps the result as its
   last line. *)
let spawn_worker sock ~telemetry =
  Unix.create_process Sys.executable_name
    [|
      Sys.executable_name;
      "--cluster-worker";
      sock;
      "1";
      (if telemetry then "1" else "0");
    |]
    Unix.stdin Unix.stderr Unix.stderr

let sock_counter = ref 0

(* One Coordinator.run over 2 freshly spawned worker processes; every
   worker is killed and reaped on the way out, whatever happens. *)
let with_cluster ~telemetry f =
  incr sock_counter;
  let sock =
    Printf.sprintf "%s/c%d-%d.sock" out_dir (Unix.getpid ()) !sock_counter
  in
  let pids = List.init domains (fun _ -> spawn_worker sock ~telemetry) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) pids;
      List.iter (fun p -> try ignore (Unix.waitpid [] p) with Unix.Unix_error _ -> ()) pids)
    (fun () -> f (CP.Unix_sock sock))

let coordinate ?(telemetry = false) ?on_progress config =
  with_cluster ~telemetry (fun listen ->
      Coordinator.run ~idle_timeout_s:60. ?on_progress
        ~on_worker_telemetry:(fun d -> M.worker_dumps := d :: !M.worker_dumps)
        ~listen config)

let train ~seed =
  let benchmarks = Array.to_list Profile.all_benchmarks in
  let collect seed =
    Training.collect ~jobs:domains ~seed ~benchmarks ~mode:Profile.PV
      ~injections_per_benchmark:train_injections_per_benchmark
      ~fault_free_per_benchmark:(train_injections_per_benchmark / 4)
      ()
  in
  let (train, test), collect_s =
    M.time (fun () ->
        let train = collect seed in
        (train, collect (seed lxor 0x7E57)))
  in
  let trained, fit_s =
    M.time (fun () ->
        Training.train_and_evaluate ~tree_seed:(seed + 1) ~train ~test ())
  in
  (Training.detector trained, collect_s, fit_s)

let setup w ~seed =
  let reps =
    List.init setup_reps (fun _ ->
        let (detector, collect_s, fit_s), total =
          M.time (fun () ->
              let ((detector, _, _) as trained) = train ~seed in
              ignore
                (Pipeline.create_host ~seed (Pipeline.Config.make ~detector ()));
              (match w with
              | Cluster ->
                  (* spawn + handshake: the smallest campaign a worker
                     can be leased *)
                  ignore
                    (coordinate
                       (Campaign.Config.make ~benchmark:Profile.Postmark
                          ~injections:1 ~seed ()))
              | Dense | Sparse | Serve -> ());
              trained)
        in
        (detector, collect_s, fit_s, total))
  in
  let digests =
    List.map (fun (d, _, _, _) -> encode Codec.versioned_detector d) reps
  in
  check "set-up trains an identical detector every time"
    (List.for_all (String.equal (List.hd digests)) digests);
  let med f = M.median (Array.of_list (List.map f reps)) in
  let detector, _, _, _ = List.hd reps in
  {
    detector;
    setup_s = med (fun (_, _, _, t) -> t);
    collect_s = med (fun (_, c, _, _) -> c);
    fit_s = med (fun (_, _, f, _) -> f);
  }

(* --- campaigns ----------------------------------------------------------- *)

type campaign_phase = {
  records : int;
  busy_s : float;  (** summed wall time of the campaign calls *)
  chunk_rates : float list;  (** records / wall time, per chunk *)
  chunk_peaks : float list;  (** peak RSS in MiB, per chunk *)
  chunk0 : string;  (** chunk 0's records, store-encoded *)
  sampled : (int * Outcome.record list) list;  (** shard index, records *)
  stats : Campaign.stats;
  shard_s : float list;  (** per-shard latencies *)
  gc : M.gc;
}

let zero_stats =
  {
    Campaign.planned = 0;
    pruned = 0;
    collapsed = 0;
    fast_forwarded = 0;
    simulated = 0;
    trace_hits = 0;
    trace_misses = 0;
  }

let add_stats (a : Campaign.stats) (b : Campaign.stats) =
  {
    Campaign.planned = a.planned + b.planned;
    pruned = a.pruned + b.pruned;
    collapsed = a.collapsed + b.collapsed;
    fast_forwarded = a.fast_forwarded + b.fast_forwarded;
    simulated = a.simulated + b.simulated;
    trace_hits = a.trace_hits + b.trace_hits;
    trace_misses = a.trace_misses + b.trace_misses;
  }

(* Shards of chunk 0 whose records the checks re-derive. *)
let sampled_shards w ~seed (cfg : Campaign.Config.t) =
  let n = List.length (Campaign.shard_plan cfg) in
  let rng = Rng.create (Rng.derive seed 0x5A) in
  let k = match w with Sparse -> 4 | Dense | Cluster | Serve -> 2 in
  List.sort_uniq compare (List.init k (fun _ -> Rng.int rng n))

(* Per-shard latency without tracing: the interval between consecutive
   shard completions on one executor (a domain in-process, a worker
   process in the cluster), the first one measured from the campaign
   call's start.  Executors run their shards back to back, so each
   interval is the wait for one shard as the caller sees it. *)
let completion_clock () =
  let t0 = M.now () in
  let lock = Mutex.create () in
  let last = Hashtbl.create 4 and intervals = ref [] in
  let tick executor =
    let t = M.now () in
    Mutex.protect lock (fun () ->
        let prev = Option.value ~default:t0 (Hashtbl.find_opt last executor) in
        Hashtbl.replace last executor t;
        intervals := (t -. prev) :: !intervals)
  in
  (tick, fun () -> !intervals)

(* One campaign call; returns its records, planner statistics (not
   available from the Coordinator) and per-shard latencies.
   Untraced: Campaign.execute_with_stats, or the Coordinator.  Traced:
   Campaign.run_shard of each shard in shard_plan over a 2-domain Pool,
   each call inside a span. *)
let run_chunk w ~traced ~parent (cfg : Campaign.Config.t) =
  match (w, traced) with
  | Cluster, _ ->
      let tick, intervals = completion_clock () in
      M.span ~parent ~layer:"cluster" "Coordinator.run" (fun _ ->
          let records =
            coordinate ~telemetry:traced
              ~on_progress:(fun p -> tick p.Coordinator.worker)
              cfg
          in
          (records, None, intervals ()))
  | _, false ->
      let tick, intervals = completion_clock () in
      let checkpoint =
        {
          Campaign.lookup = (fun _ -> None);
          commit = (fun _ _ -> tick (Domain.self () :> int));
        }
      in
      let records, stats = Campaign.execute_with_stats ~checkpoint cfg in
      (records, Some stats, intervals ())
  | _, true ->
      M.span ~parent ~layer:"faultinject" "Campaign.shard_plan" (fun pid ->
          let pool = Pool.create ~jobs:domains in
          let results =
            Pool.map_list pool
              (fun (_, shard) ->
                M.span ~parent:pid ~layer:"faultinject" "Campaign.run_shard"
                  (fun _ -> M.time (fun () -> Campaign.run_shard shard)))
              (Campaign.shard_plan cfg)
          in
          ( List.concat_map (fun ((r, _), _) -> r) results,
            Some
              (List.fold_left
                 (fun acc ((_, s), _) -> add_stats acc s)
                 zero_stats results),
            List.map snd results ))

(* OCaml 5 lazies are not domain-safe, and the program creates some of
   its telemetry handles lazily (Campaign, Pool, Hypervisor): two
   domains forcing one for the first time at once raise Lazy.Undefined.
   Before a traced parallel phase, force them once: a shard on this
   domain, then one 2-domain Pool batch whose possible Undefined is
   expected (the winning domain completes the force). *)
let force_telemetry_handles w ~detector ~seed =
  let cfg = campaign_config w ~detector ~seed in
  let _, shard = List.hd (Campaign.shard_plan cfg) in
  ignore (Campaign.run_shard { shard with Campaign.injections = 1 });
  try ignore (Pool.map (Pool.create ~jobs:domains) Fun.id [| (); () |])
  with Lazy.Undefined -> ()

let campaign_phase w ~setup ~seed ~seconds ~traced =
  let config_of k =
    campaign_config w ~detector:setup.detector ~seed:(Rng.derive seed k)
  in
  let cfg0 = config_of 0 in
  let sampled_idx = sampled_shards w ~seed cfg0 in
  let per = Campaign.shard_size * cfg0.Campaign.faults_per_run in
  let gc0 = M.gc_now () in
  let rec loop k acc =
    if k >= rss_calls && acc.busy_s >= seconds then acc
    else begin
      let cfg = config_of k in
      (* Each call starts from a collected heap and its peak is read
         from there, outside the timed region. *)
      Gc.full_major ();
      ignore (M.reset_peak_rss ());
      let (records, stats, shard_s), dt =
        M.time (fun () ->
            M.span ~layer:"bench" (Printf.sprintf "chunk %d" k) (fun parent ->
                run_chunk w ~traced ~parent cfg))
      in
      let peak_mib = M.peak_rss_mib () in
      let n = List.length records in
      check
        (Printf.sprintf "chunk %d yields injections x faults_per_run records" k)
        (n = cfg.Campaign.injections * cfg.Campaign.faults_per_run);
      let acc =
        {
          acc with
          records = acc.records + n;
          busy_s = acc.busy_s +. dt;
          chunk_rates = (float_of_int n /. dt) :: acc.chunk_rates;
          chunk_peaks = peak_mib :: acc.chunk_peaks;
          stats =
            (match stats with Some s -> add_stats acc.stats s | None -> acc.stats);
          shard_s = List.rev_append shard_s acc.shard_s;
        }
      in
      let acc =
        if k > 0 then acc
        else
          {
            acc with
            chunk0 = encode_records records;
            sampled =
              List.map
                (fun i -> (i, slice records ~lo:(i * per) ~hi:((i + 1) * per)))
                sampled_idx;
          }
      in
      loop (k + 1) acc
    end
  in
  let acc =
    loop 0
      {
        records = 0;
        busy_s = 0.;
        chunk_rates = [];
        chunk_peaks = [];
        chunk0 = "";
        sampled = [];
        stats = zero_stats;
        shard_s = [];
        gc = gc0;
      }
  in
  ({ acc with gc = M.gc_delta gc0 (M.gc_now ()) }, cfg0)

(* Planned = exhaustive on the sampled shards; cluster = in-process on
   chunk 0.  Run outside every timed region. *)
let check_campaign w (ph, cfg0) =
  let plan = Array.of_list (Campaign.shard_plan cfg0) in
  List.iter
    (fun (i, planned) ->
      let exhaustive, _ =
        Campaign.run_shard { (snd plan.(i)) with Campaign.prune = false }
      in
      let ok = encode_records planned = encode_records exhaustive in
      if not ok then failed_ops := !failed_ops + List.length planned;
      check (Printf.sprintf "planned = exhaustive on shard %d of chunk 0" i) ok)
    ph.sampled;
  if w = Cluster then begin
    let reference = encode_records (Campaign.execute cfg0) in
    let ok = reference = ph.chunk0 in
    if not ok then
      failed_ops :=
        !failed_ops + (cfg0.Campaign.injections * cfg0.Campaign.faults_per_run);
    check "cluster records = in-process records on chunk 0" ok
  end

(* --- serve --------------------------------------------------------------- *)

let serve_config ~setup ~seed ~seconds =
  (* Whole-run percentiles: room for every request the generator can
     offer (it integrates rate x elapsed), so nothing is truncated. *)
  let max_samples = int_of_float (2. *. serve_rate *. seconds) + 1024 in
  Server.make
    ~pipeline:(Pipeline.Config.make ~detector:setup.detector ())
    ~mode:Profile.PV ~streams:serve_streams ~duration_s:seconds ~jobs:1 ~seed
    ~queue_capacity:serve_queue_capacity ~max_samples
    ~benchmark:Profile.Postmark ~rate:serve_rate ()

type serve_phase = {
  summary : Server.summary;
  latency_ok : bool;  (** the sample covers every completion *)
  serve_gc : M.gc;
  serve_peak_mib : float;  (** peak RSS of the Server.run call *)
}

let serve_phase ~setup ~seed ~seconds =
  let cfg = serve_config ~setup ~seed ~seconds in
  Gc.full_major ();
  ignore (M.reset_peak_rss ());
  let gc0 = M.gc_now () in
  let s =
    M.span ~layer:"serve" "Server.run" (fun _ -> Server.run cfg)
  in
  let gc = M.gc_delta gc0 (M.gc_now ()) in
  let serve_peak_mib = M.peak_rss_mib () in
  let open Server in
  let conserved =
    s.offered = s.admitted + s.shed_queue_full
    && s.admitted = s.completed + s.shed_deadline + s.shed_draining
  in
  let latency_ok = Array.length s.latency_us = s.completed in
  check "serve: offered = admitted + shed_queue_full and admitted = completed + shed" conserved;
  check "serve: latency sample count = completed (no truncation)" latency_ok;
  if not conserved then incr failed_ops;
  { summary = s; latency_ok; serve_gc = gc; serve_peak_mib }

(* A percentile from a truncated sample is refused (reported as 0 with
   the run failed by the check above). *)
let serve_latency ph q = if ph.latency_ok then M.quantile ph.summary.Server.latency_us q else 0.

(* The end-to-end serve latency: the median, over [serve_windows]
   consecutive windows of completions, of each window's median.  A
   stall of the shared host (tens of ms, seen a few times a minute)
   backs up every request behind it and can swing a whole-run p90 by 2x;
   the windowed median keeps one stalled second from deciding the run,
   while the whole-run percentiles stay in the per-layer metrics.
   [latency_us] lists a worker's completions in order; with one worker
   the windows are consecutive stretches of the run. *)
let windowed_p50 ph =
  let l = ph.summary.Server.latency_us in
  let width = Array.length l / serve_windows in
  if not ph.latency_ok then 0.
  else if width = 0 then M.median l
  else
    M.median
      (Array.init serve_windows (fun i -> M.median (Array.sub l (i * width) width)))

let slo_share ph =
  let s = ph.summary in
  let within =
    Array.fold_left (fun n l -> if l <= slo_us then n + 1 else n) 0 s.Server.latency_us
  in
  M.fratio within s.Server.offered

(* --- layer probes (traced runs) ------------------------------------------ *)

let request_stream w ~seed n =
  let profile = Profile.get (benchmark_of w) in
  let rng = Rng.create (Rng.derive seed 0xBE) in
  Array.init n (fun _ -> Profile.sample_request profile Profile.PV rng)

(* Steps/s of Hypervisor.execute over the stream on one engine, plus
   each run's (steps, PMU) for the ref = fast identity check. *)
let engine_probe engine ~seed reqs =
  let host = Hypervisor.create ~seed ~engine () in
  Hypervisor.set_assertions_enabled host true;
  let steps = ref 0 and busy = ref 0. in
  let results =
    M.span ~layer:"machine" ("Hypervisor.execute " ^ Cpu.engine_name engine)
      (fun _ ->
        Array.map
          (fun req ->
            Hypervisor.prepare host req;
            let r, dt = M.time (fun () -> Hypervisor.execute host ~fuel:20_000 req) in
            busy := !busy +. dt;
            steps := !steps + r.Cpu.steps;
            Hypervisor.retire host req;
            (r.Cpu.steps, r.Cpu.final_pmu, req.Xentry_vmm.Request.reason))
          reqs)
  in
  (M.ratio (float_of_int !steps) !busy, results)

(* Recording overhead, clone and snapshot-capture cost on one host,
   each execution from its own clone of the prepared host. *)
let vmm_probe ~seed reqs =
  let host = Hypervisor.create ~seed () in
  Hypervisor.set_assertions_enabled host true;
  let plain = ref 0. and recorded = ref 0. and clone = ref 0. in
  let periodic = Array.init 32 (fun k -> k * 64) in
  M.span ~layer:"vmm" "Hypervisor.clone/execute_plain/execute_recorded" (fun _ ->
      Array.iter
        (fun req ->
          Hypervisor.prepare host req;
          let a, dt = M.time (fun () -> Hypervisor.clone host) in
          clone := !clone +. dt;
          let b = Hypervisor.clone host in
          let c = Hypervisor.clone host in
          let _, dt = M.time (fun () -> Hypervisor.execute_plain a ~fuel:20_000 req) in
          plain := !plain +. dt;
          let _, dt =
            M.time (fun () -> Hypervisor.execute_recorded b ~fuel:20_000 req)
          in
          recorded := !recorded +. dt;
          (* telemetry only here: it times each capture *)
          M.Tm.enable ();
          ignore (Hypervisor.execute_plain c ~fuel:20_000 ~snapshot_at:periodic req);
          M.Tm.disable ();
          ignore (Hypervisor.execute host ~fuel:20_000 req);
          Hypervisor.retire host req)
        reqs);
  let n = float_of_int (Array.length reqs) in
  metric "golden_trace.record_overhead" "ratio" (M.ratio !recorded !plain);
  metric "hv.clone_us" "us" (!clone /. n *. 1e6);
  metric "hv.snapshot_capture_us" "us" (M.histogram_mean "hv.snapshot.capture.ns" /. 1e3)

let detector_probe (setup : setup) results =
  let vectors =
    Array.map (fun (_, pmu, reason) -> Features.of_run ~reason pmu) results
  in
  let reps = 50 in
  let (), dt =
    M.time (fun () ->
        M.span ~layer:"xentry" "Detector.classify_features" (fun _ ->
            for _ = 1 to reps do
              Array.iter
                (fun v -> ignore (Detector.classify_features setup.detector v))
                vectors
            done))
  in
  metric "detector.classify_ns" "ns"
    (dt /. float_of_int (reps * Array.length vectors) *. 1e9);
  metric "detector.worst_case_comparisons" "count"
    (float_of_int (Detector.worst_case_comparisons setup.detector))

(* Per-request Pipeline.run time on the workload's stream. *)
let service_probe (setup : setup) ~seed reqs =
  let cfg = Pipeline.Config.make ~detector:setup.detector () in
  let host = Pipeline.create_host ~seed cfg in
  let times =
    M.span ~layer:"xentry" "Pipeline.run" (fun _ ->
        Array.map
          (fun req -> snd (M.time (fun () -> Pipeline.run cfg ~host ~retire:true req)))
          reqs)
  in
  M.median times *. 1e6

(* Encode/decode of one real Shard_result frame. *)
let protocol_probe ~shard records =
  let msg = CP.Shard_result { shard; records } in
  let reps = 10 in
  let n = float_of_int (reps * max 1 (List.length records)) in
  let frame = CP.encode msg in
  let (), enc =
    M.time (fun () ->
        M.span ~layer:"store" "Protocol.encode" (fun _ ->
            for _ = 1 to reps do ignore (CP.encode msg) done))
  in
  let decoded = ref None in
  let (), dec =
    M.time (fun () ->
        M.span ~layer:"store" "Protocol.decoder" (fun _ ->
            for _ = 1 to reps do
              let d = CP.decoder () in
              CP.feed d frame;
              decoded := Some (CP.next d)
            done))
  in
  check "protocol: a Shard_result frame decodes to its records"
    (match !decoded with
    | Some (Ok (Some (CP.Shard_result { records = r; shard = s }))) ->
        s = shard && encode_records r = encode_records records
    | _ -> false);
  metric "protocol.encode_ns_per_record" "ns" (enc /. n *. 1e9);
  metric "protocol.decode_ns_per_record" "ns" (dec /. n *. 1e9)

(* Layer probes, timed with telemetry off. *)
let probes w (setup : setup) ~seed ~shard_records ~serve_p50_us =
  M.telemetry_window ~on:false;
  let reqs = request_stream w ~seed probe_requests in
  let fast_sps, fast = engine_probe Cpu.Fast ~seed reqs in
  let ref_sps, refr = engine_probe Cpu.Ref ~seed reqs in
  check "machine: ref engine = fast engine on the request stream"
    (Array.for_all2 (fun (s, p, _) (s', p', _) -> s = s' && p = p') fast refr);
  metric "cpu.fast.steps_per_s" "1/s" fast_sps;
  metric "cpu.ref.steps_per_s" "1/s" ref_sps;
  vmm_probe ~seed (Array.sub reqs 0 (probe_requests / 4));
  detector_probe setup fast;
  let service_us = service_probe setup ~seed reqs in
  metric "serve.service_us" "us" service_us;
  metric "serve.queue_wait_us" "us"
    (match serve_p50_us with Some p50 -> p50 -. service_us | None -> 0.);
  let shard, records = shard_records in
  protocol_probe ~shard records

(* --- per-layer metrics from a traced phase's telemetry ------------------- *)

let telemetry_metrics ~ops =
  let c = M.counter in
  let hit_rate hit miss = M.fratio (c hit) (c hit + c miss) in
  metric "memory.tlb.read_hit_rate" "ratio"
    (hit_rate "memory.tlb.read.hit" "memory.tlb.read.miss");
  metric "memory.tlb.write_hit_rate" "ratio"
    (hit_rate "memory.tlb.write.hit" "memory.tlb.write.miss");
  metric "memory.cow_privatise_per_inj" "count" (M.fratio (c "memory.cow.privatise") ops);
  metric "ras.drains" "count" (float_of_int (c "ras.drains"));
  metric "ras.records_logged" "count" (float_of_int (c "ras.records_logged"));
  metric "ras.drain_ns" "ns" (M.histogram_mean "ras.drain_latency.ns");
  metric "pool.queue_wait_ms" "ms" (M.histogram_mean "pool.queue_wait.ns" /. 1e6);
  let records = float_of_int (max 1 ops) in
  metric "cluster.bytes_per_inj" "B"
    (float_of_int (c "cluster.bytes_sent" + c "cluster.bytes_received") /. records);
  metric "cluster.frames" "count"
    (float_of_int (c "cluster.frames_sent" + c "cluster.frames_received"));
  metric "cluster.lease_wait_ms" "ms" (M.histogram_mean "cluster.lease.wait_ns" /. 1e6);
  metric "cluster.worker_rtt_ms" "ms" (M.histogram_mean "cluster.worker.rtt_ns" /. 1e6);
  metric "cluster.lease_reissued" "count" (float_of_int (c "cluster.lease.reissued"))

(* Shard-time decomposition over the existing campaign spans.  Golden
   recording contains the snapshot captures, so its self time excludes
   them; what no span covers is the shard's own bookkeeping. *)
let campaign_span_metrics ~shard_total_s =
  let s = M.histogram_sum_s in
  let capture = s "hv.snapshot.capture.ns" in
  let parts =
    [
      ("campaign.golden", s "campaign.golden.ns" -. capture);
      ("hv.snapshot.capture", capture);
      ("campaign.plan", s "campaign.plan.ns");
      ("campaign.resume", s "campaign.resume.ns");
      ("campaign.snapshot.restore", s "campaign.snapshot.restore.ns");
      ("campaign.classify", s "campaign.classify.ns");
    ]
  in
  let covered = List.fold_left (fun acc (_, v) -> acc +. v) 0. parts in
  List.iter
    (fun (name, self) ->
      metric (name ^ ".self_s") "s" self;
      metric (name ^ ".share") "ratio" (M.ratio self shard_total_s))
    (parts @ [ ("campaign.shard.other", Float.max 0. (shard_total_s -. covered)) ])

let planner_metrics (st : Campaign.stats) =
  metric "planner.pruned_frac" "ratio" (M.fratio st.pruned st.planned);
  metric "planner.collapsed_frac" "ratio" (M.fratio st.collapsed st.planned);
  metric "planner.ff_frac" "ratio" (M.fratio st.fast_forwarded st.planned);
  metric "planner.simulated" "count" (float_of_int st.simulated)

let gc_metrics (g : M.gc) ~ops =
  metric "gc.minor_collections" "count" (float_of_int g.minor_collections);
  metric "gc.major_collections" "count" (float_of_int g.major_collections);
  metric "gc.minor_words_per_op" "words" (g.minor_words /. float_of_int (max 1 ops));
  metric "gc.top_heap_mib" "MiB"
    (float_of_int (g.top_heap_words * (Sys.word_size / 8)) /. 1048576.)

let serve_layer_metrics ph ~seconds =
  let s = ph.summary in
  metric "serve.p50_us" "us" (serve_latency ph 0.5);
  metric "serve.p90_us" "us" (serve_latency ph 0.9);
  metric "serve.p99_us" "us" (serve_latency ph 0.99);
  metric "serve.p999_us" "us" (serve_latency ph 0.999);
  metric "serve.slo_1ms_share" "ratio" (slo_share ph);
  metric "serve.generator_deficit" "ratio"
    (1. -. (float_of_int s.Server.offered /. (serve_rate *. seconds)));
  metric "serve.shed_share" "ratio" (Server.shed_fraction s);
  metric "serve.deepest_rung" "count" (float_of_int s.Server.deepest_rung);
  metric "serve.peak_occupancy" "ratio" s.Server.peak_occupancy

(* Metrics of layers a workload never enters read 0 on it. *)
let zero names = List.iter (fun (n, u) -> metric n u 0.) names

let serve_only =
  [
    ("serve.p50_us", "us");
    ("serve.p90_us", "us");
    ("serve.p99_us", "us");
    ("serve.p999_us", "us");
    ("serve.slo_1ms_share", "ratio");
    ("serve.generator_deficit", "ratio");
    ("serve.shed_share", "ratio");
    ("serve.deepest_rung", "count");
    ("serve.peak_occupancy", "ratio");
  ]

let campaign_only =
  [
    ("planner.pruned_frac", "ratio");
    ("planner.collapsed_frac", "ratio");
    ("planner.ff_frac", "ratio");
    ("planner.simulated", "count");
    ("campaign.shard_ms.p50", "ms");
    ("campaign.shard_ms.p90", "ms");
  ]
  @ List.concat_map
      (fun n -> [ (n ^ ".self_s", "s"); (n ^ ".share", "ratio") ])
      [
        "campaign.golden";
        "hv.snapshot.capture";
        "campaign.plan";
        "campaign.resume";
        "campaign.snapshot.restore";
        "campaign.classify";
        "campaign.shard.other";
      ]

(* --- the run ------------------------------------------------------------- *)

let attempted = ref 0
let chunk_rates = ref []
let chunk_peaks = ref []
let digest = ref ""

(* The end-to-end metrics, one set for every workload: operations per
   second (injection records for a campaign, completed requests for
   serve) and the median latency of one unit of work a user waits for
   (a shard of 100 golden runs for a campaign, a request for serve),
   and the peak resident set of one call started from a collected heap
   (the median over the first [rss_calls] campaign calls; the
   Server.run call).  A whole-run VmHWM is not used: it grows with the
   number of calls a run fits and spread 0.22 (IQR over median) over
   ten dense runs.
   Higher percentiles are per-layer: on the shared 2-vCPU host, CPU
   steal bursts moved a p90 by up to 37 % (IQR over median) across ten
   identical runs, beyond any bound this benchmark may set. *)
let end_to_end ~throughput ~p50_s ~rss_mib =
  metric "throughput_per_s" "1/s" throughput;
  metric "latency_p50_ms" "ms" (p50_s *. 1e3);
  metric "peak_rss_mib" "MiB" rss_mib

(* Campaign throughput: the median over campaign calls of records per
   second, so a steal burst during one call does not decide the run. *)
let campaign_rate ph = M.median (Array.of_list ph.chunk_rates)

let run w ~seed ~seconds ~trace =
  let setup = setup w ~seed in
  (* Collect set-up's garbage now, so the measured phase does not pay
     major-GC work for it. *)
  Gc.full_major ();
  if trace then begin
    metric "setup.collect_s" "s" setup.collect_s;
    metric "setup.fit_s" "s" setup.fit_s
  end
  else metric "setup_s" "s" setup.setup_s;
  match w with
  | Serve ->
      let ph = serve_phase ~setup ~seed ~seconds in
      attempted := ph.summary.Server.offered;
      (* Requests still queued when the window closes are shed as
         Draining by design; only refusals during the run fail. *)
      failed_ops :=
        !failed_ops + ph.summary.Server.shed_queue_full
        + ph.summary.Server.shed_deadline;
      (* Serve timing decides which requests complete, so the
         comparable output is the detector every request ran under. *)
      digest :=
        Digest.to_hex
          (Digest.string (encode Codec.versioned_detector setup.detector));
      let p50 = serve_latency ph 0.5 in
      if not trace then
        end_to_end ~throughput:ph.summary.Server.throughput_rps
          ~p50_s:(windowed_p50 ph *. 1e-6) ~rss_mib:ph.serve_peak_mib
      else begin
        serve_layer_metrics ph ~seconds;
        gc_metrics ph.serve_gc ~ops:ph.summary.Server.offered;
        M.telemetry_window ~on:true;
        M.tracing := true;
        let traced = serve_phase ~setup ~seed ~seconds in
        telemetry_metrics ~ops:traced.summary.Server.completed;
        metric "trace.overhead" "ratio" (M.ratio (serve_latency traced 0.5) p50 -. 1.);
        zero campaign_only;
        (* The protocol probe needs a real shard frame of the
           workload's benchmark. *)
        let cfg = campaign_config Serve ~detector:setup.detector ~seed in
        let i, shard = List.hd (Campaign.shard_plan cfg) in
        probes w setup ~seed
          ~shard_records:(i, fst (Campaign.run_shard shard))
          ~serve_p50_us:(Some p50)
      end
  | Dense | Sparse | Cluster ->
      let ((ph, _) as result) =
        campaign_phase w ~setup ~seed ~seconds ~traced:false
      in
      attempted := ph.records;
      digest := Digest.to_hex (Digest.string ph.chunk0);
      let rate = campaign_rate ph in
      chunk_rates := ph.chunk_rates;
      chunk_peaks := ph.chunk_peaks;
      if not trace then
        end_to_end ~throughput:rate
          ~p50_s:(M.quantile (Array.of_list ph.shard_s) 0.5)
          ~rss_mib:
            (M.median
               (Array.of_list
                  (List.filteri (fun i _ -> i < rss_calls) (List.rev ph.chunk_peaks))))
      else begin
        gc_metrics ph.gc ~ops:ph.records;
        M.telemetry_window ~on:true;
        force_telemetry_handles w ~detector:setup.detector ~seed;
        M.telemetry_window ~on:true;
        M.tracing := true;
        let tph, _ = campaign_phase w ~setup ~seed ~seconds ~traced:true in
        check "traced run_shard concatenation = untraced chunk 0"
          (tph.chunk0 = ph.chunk0);
        metric "trace.overhead" "ratio"
          (M.ratio rate (campaign_rate tph) -. 1.);
        telemetry_metrics ~ops:tph.records;
        let shard_s =
          match w with
          | Cluster ->
              List.concat_map (fun d -> M.dump_event_floats d "wall_s") !M.worker_dumps
          | Dense | Sparse | Serve -> tph.shard_s
        in
        let shard_s = Array.of_list shard_s in
        metric "campaign.shard_ms.p50" "ms" (M.quantile shard_s 0.5 *. 1e3);
        metric "campaign.shard_ms.p90" "ms" (M.quantile shard_s 0.9 *. 1e3);
        campaign_span_metrics
          ~shard_total_s:(Array.fold_left ( +. ) 0. shard_s);
        planner_metrics
          (match w with
          | Cluster ->
              let c = M.counter in
              {
                zero_stats with
                planned = tph.records;
                pruned = c "campaign.pruned";
                collapsed = c "campaign.class_collapsed";
                fast_forwarded = c "campaign.fast_forwarded";
                simulated = c "campaign.simulated";
              }
          | Dense | Sparse | Serve -> tph.stats);
        M.telemetry_window ~on:false;
        zero serve_only;
        probes w setup ~seed ~shard_records:(List.hd ph.sampled)
          ~serve_p50_us:None
      end;
      check_campaign w result

(* --- output -------------------------------------------------------------- *)

let metrics_json () =
  M.json_object
    (List.rev_map
       (fun (name, v, unit) ->
         ( name,
           M.json_object
             [ ("value", M.json_float v); ("unit", M.json_string unit) ] ))
       !metrics)

let write_record ~workload ~seed ~seconds ~trace ~correct ~failed =
  let layers = M.self_time_by_layer (M.recorded_spans ()) in
  let body =
    M.json_object
      [
        ("schema", M.json_string "xbench-record-v1");
        ("workload", M.json_string workload);
        ("seed", string_of_int seed);
        ("seconds", M.json_float seconds);
        ("trace", string_of_bool trace);
        ( "machine",
          M.json_object
            [
              ("nproc", string_of_int (Domain.recommended_domain_count ()));
              ("ocaml", M.json_string Sys.ocaml_version);
              ("os_type", M.json_string Sys.os_type);
            ] );
        ("correct", string_of_bool correct);
        ("attempted", string_of_int !attempted);
        ("failed", string_of_int failed);
        ("failed_checks", M.json_list (List.rev_map M.json_string !failed_checks));
        ("records_digest", M.json_string !digest);
        ("chunk_rates", M.json_list (List.rev_map M.json_float !chunk_rates));
        ("chunk_peak_rss_mib", M.json_list (List.rev_map M.json_float !chunk_peaks));
        ( "self_s_by_layer",
          M.json_object (List.map (fun (l, v) -> (l, M.json_float v)) layers) );
        ("metrics", metrics_json ());
      ]
  in
  let base =
    Printf.sprintf "%s/%s-s%d-t%d" out_dir workload seed (if trace then 1 else 0)
  in
  let write path s =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
  in
  write (base ^ ".json") (body ^ "\n");
  if trace then
    write (base ^ ".spans.jsonl")
      (String.concat ""
         (List.map
            (fun (s : M.span) ->
              M.json_object
                [
                  ("id", string_of_int s.id);
                  ("parent", string_of_int s.parent);
                  ("name", M.json_string s.name);
                  ("layer", M.json_string s.layer);
                  ("domain", string_of_int s.domain);
                  ("start_s", M.json_float s.t0);
                  ("end_s", M.json_float s.t1);
                ]
              ^ "\n")
            (M.recorded_spans ())));
  base ^ ".json"

let usage () =
  prerr_endline
    "usage: main.exe --workload campaign-dense|campaign-sparse|serve-steady|campaign-cluster \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "--cluster-worker"; sock; jobs; telemetry ] ->
      if telemetry = "1" then Xentry_util.Telemetry.enable ();
      Xentry_cluster.Worker.run ~jobs:(int_of_string jobs)
        ~connect:(CP.Unix_sock sock) ();
      exit 0
  | _ :: args ->
      let rec parse acc = function
        | [] -> acc
        | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
            parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let workload = get "workload" in
      let w = match List.assoc_opt workload workloads with Some w -> w | None -> usage () in
      let seed = match int_of_string_opt (get "seed") with Some s -> s | None -> usage () in
      let seconds =
        match float_of_string_opt (get "seconds") with
        | Some s when s > 0. -> s
        | _ -> usage ()
      in
      let trace =
        match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      (try run w ~seed ~seconds ~trace
       with e ->
         check ("exception: " ^ Printexc.to_string e) false;
         incr failed_ops);
      let correct = !failed_checks = [] in
      let failed = if correct then !failed_ops else max 1 !failed_ops in
      let path = write_record ~workload ~seed ~seconds ~trace ~correct ~failed in
      Printf.printf "record: %s\nrecords_digest: %s\nfailed_checks: %d\n" path
        !digest (List.length !failed_checks);
      print_endline
        (M.json_object
           [
             ("correct", string_of_bool correct);
             ("attempted", string_of_int (max 1 !attempted));
             ("failed", string_of_int failed);
             ("metrics", metrics_json ());
           ]);
      exit (if correct then 0 else 1)
  | [] -> usage ()
