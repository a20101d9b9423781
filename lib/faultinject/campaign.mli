(** Fault-injection campaigns (paper §V).

    A campaign replays a benchmark's VM-exit stream on a simulated
    host and, for each injection iteration, runs up to three executions
    per fault from the same prepared state:

    {ol
    {- the {e golden} execution (fault-free) — also advances the live
       host so successive injections see evolving system state;}
    {- the {e detected} execution — fault injected, Xentry's runtime
       detection active as configured;}
    {- when (and only when) a software assertion stopped the detected
       execution early, a {e natural} execution with assertions
       disabled reveals what the fault would have done unimpeded.}}

    Consequences come from golden-vs-faulted comparison
    ({!Classify.consequence}); detections are attributed by
    {!Xentry_core.Pipeline.verdict}.

    {2 Golden-trace planning}

    With [prune] enabled (the default; disable with [XENTRY_PRUNE=0]
    or [--no-prune]) the campaign consults the golden execution's
    def/use trace ({!Xentry_machine.Golden_trace}) before simulating
    anything: faults whose flipped bit is provably overwritten before
    its next use are answered from the golden result with zero
    simulation, faults with identical def-use consequences collapse
    into one representative run, and each surviving run is forked off
    the golden run paused at its activation step instead of
    re-executing the whole prefix ({!Planner}).  A golden run whose
    faults all prune forks nothing.  The records are {e bit-identical} to the
    exhaustive path for any [jobs] value — enforced by differential
    tests — so pruning is purely a throughput optimization. *)

(** Campaign configuration.  One record names every knob; the same
    record drives both execution ({!execute}) and the persistent
    store's checkpoint fingerprint
    ({!Xentry_store.Journal.campaign_fingerprint} is computed from
    {!Config.canonical}), so the config and the fingerprint cannot
    drift apart. *)
module Config : sig
  type t = {
    seed : int;
    injections : int;
    faults_per_run : int;
        (** faults sampled (and recorded) per golden execution
            (default 1).  Amortizes the golden run and, with pruning,
            its trace across many faults; records are
            emitted in fault-sample order, [injections *
            faults_per_run] in total. *)
    benchmark : Xentry_workload.Profile.benchmark;
    mode : Xentry_workload.Profile.virt_mode;
    detector : Xentry_core.Detector.t option;
    framework : Xentry_core.Pipeline.detection;
    fault_classes : Fault.cls list;
        (** classes {!Fault.sample} draws from (default
            [[Fault.Reg_single_bit]], the paper's model — which keeps
            the sampler's RNG stream, and therefore every record of a
            seeded campaign, bit-identical to the pre-widening
            engine) *)
    fuel : int;
    hardened : bool;
        (** use the selective-duplication handler variants (paper §VI
            future work) *)
    prune : bool;
        (** plan against the golden trace (prune + collapse +
            fast-forward) instead of simulating every fault.
            Execution-only: records are bit-identical either way, so
            it is excluded from {!canonical}.  Default: true unless
            [XENTRY_PRUNE=0]. *)
    jobs : int option;
        (** worker domains; [None] = [Pool.default_jobs ()].
            Execution-only: records are bit-identical for any value,
            so it is excluded from {!canonical}. *)
  }

  val make :
    ?detector:Xentry_core.Detector.t ->
    ?framework:Xentry_core.Pipeline.detection ->
    ?fault_classes:Fault.cls list ->
    ?mode:Xentry_workload.Profile.virt_mode ->
    ?fuel:int ->
    ?hardened:bool ->
    ?faults_per_run:int ->
    ?prune:bool ->
    ?jobs:int ->
    benchmark:Xentry_workload.Profile.benchmark ->
    injections:int ->
    seed:int ->
    unit ->
    t
  (** Defaults: PV mode, full detection, fuel 20_000, baseline
      handlers, one fault per run, pruning on (honouring
      [XENTRY_PRUNE]), [Pool.default_jobs] workers. *)

  val pipeline : t -> Xentry_core.Pipeline.Config.t
  (** The per-execution pipeline config a campaign applies to each
      detected run (detection set, detector, fuel). *)

  val canonical :
    detector_digest:(Xentry_core.Detector.t -> string) ->
    t ->
    string
  (** Canonical [key=value;…] encoding of every record-affecting field
      ([jobs] and [prune] excluded — the planner invariant keeps
      records bit-identical across both).  The
      implementation destructures the whole record, so adding a field
      forces a decision here — config and fingerprint cannot silently
      drift.  [detector_digest] renders the detector (the store digests
      its encoded bytes). *)

  val trace_canonical : t -> string
  (** Canonical encoding of the fields the campaign's {e golden trace
      sequence} depends on (seed, injections, benchmark, mode, fuel,
      hardened) — the trace cache's fingerprint.  Golden runs never see
      the detector, the detection framework, [faults_per_run] or the
      planner knobs, so campaigns differing only in those share cached
      traces. *)
end

type config = Config.t = {
  seed : int;
  injections : int;
  faults_per_run : int;
  benchmark : Xentry_workload.Profile.benchmark;
  mode : Xentry_workload.Profile.virt_mode;
  detector : Xentry_core.Detector.t option;
  framework : Xentry_core.Pipeline.detection;
  fault_classes : Fault.cls list;
  fuel : int;
  hardened : bool;
  prune : bool;
  jobs : int option;
}
(** Historical flat spelling of {!Config.t} (same type, via equation). *)

val shard_size : int
(** Injections per shard (100).  Campaigns are decomposed into
    fixed-size shards seeded by [Rng.derive (config.seed, index)]; the
    decomposition depends only on the config, never on the worker
    count. *)

type stats = {
  planned : int;  (** faults considered ([injections * faults_per_run]) *)
  pruned : int;  (** answered from the trace with zero simulation *)
  collapsed : int;
      (** class members served by another fault's representative run *)
  fast_forwarded : int;
      (** simulated runs forked off a golden run paused past step 0 *)
  simulated : int;  (** detected executions actually run *)
  trace_hits : int;  (** shards served by the trace cache *)
  trace_misses : int;  (** shards that recorded fresh traces *)
}
(** Planner effectiveness totals, summed over shards.  The exhaustive
    path reports [planned = simulated] and zeros elsewhere. *)

val shard_plan : Config.t -> (int * Config.t) list
(** The campaign's shard decomposition as [(index, shard config)]
    pairs, lowest index first — a pure function of the config.  This
    is the unit of distribution: a cluster coordinator leases shard
    indices, any worker rebuilds the identical shard config from the
    campaign config it was sent, and merging per-shard records in
    index order reproduces {!execute}'s output bit-for-bit regardless
    of which process (or machine) ran which shard. *)

val run_shard : Config.t -> Outcome.record list * stats
(** Execute one shard config from {!shard_plan} on the calling domain
    (planner honoured, no trace cache) and return its records and
    planner statistics.  [run_shard shard] for every planned shard,
    concatenated in index order, equals {!execute} of the campaign
    config. *)

type checkpoint = {
  lookup : int -> Outcome.record list option;
      (** previously journaled records for a shard index, if any *)
  commit : int -> Outcome.record list -> unit;
      (** persist a freshly computed shard (called from the worker
          domain that ran it, at most once per index per run) *)
}
(** Shard-level checkpointing hooks.  The campaign engine stays
    storage-agnostic: [Xentry_store.Journal] implements this pair over
    an on-disk journal directory, and anything else (a cache, a test
    double) can too.  Because shard decomposition is a pure function
    of the config, replaying [lookup]-served shards and computing the
    rest merges into a record list bit-identical to an uninterrupted
    run, for any [jobs] value. *)

type trace_cache = {
  trace_lookup : int -> Xentry_machine.Golden_trace.t list option;
      (** cached golden traces for a shard index (one per injection
          iteration, in order), if any *)
  trace_commit : int -> Xentry_machine.Golden_trace.t list -> unit;
      (** persist the traces a worker just recorded for a shard *)
}
(** Golden-trace caching hooks, the planner's analogue of
    {!checkpoint}: [Xentry_store.Trace_cache] implements the pair over
    an on-disk directory keyed by {!Config.trace_canonical}.  A shard
    served by [trace_lookup] samples its faults and builds its plan
    {e before} the golden run, executes the golden run without
    recording overhead, and forks the surviving faults' runs off it
    while it is paused at their activation steps.  Only consulted when
    [config.prune] is set; a cached list whose length does not match
    the shard is treated as a miss. *)

val execute :
  ?checkpoint:checkpoint ->
  ?traces:trace_cache ->
  Config.t ->
  Outcome.record list
(** Execute the campaign; [faults_per_run] records per injection
    iteration, in fault-sample order.  Shards run on [config.jobs]
    domains ([Pool.default_jobs ()] when [None], i.e. [XENTRY_JOBS] or
    serial) and merge in shard order, so the record list is
    bit-identical for every [jobs] value — and, by the planner
    invariant, for [prune] on or off.
    With [checkpoint], already-journaled shards are served from
    [lookup] instead of being re-executed and each newly computed
    shard is [commit]ted as soon as it completes — a killed run
    resumes where it left off. *)

val execute_with_stats :
  ?checkpoint:checkpoint ->
  ?traces:trace_cache ->
  Config.t ->
  Outcome.record list * stats
(** {!execute}, also returning planner statistics (checkpoint-served
    shards contribute nothing to the stats). *)

val run_fault_free :
  ?jobs:int ->
  seed:int ->
  benchmark:Xentry_workload.Profile.benchmark ->
  mode:Xentry_workload.Profile.virt_mode ->
  runs:int ->
  unit ->
  (Xentry_vmm.Exit_reason.t * Xentry_machine.Pmu.snapshot) list
(** Fault-free executions of the benchmark's stream — the correct
    training samples and the false-positive test population. *)
