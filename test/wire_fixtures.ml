(* Hand-built values whose encodings the store and cluster tests pin
   by MD5: outcome records covering all six fault classes, and one
   cluster message of every tag.  Everything is a literal (no
   training, no campaign run), so a changed digest can only mean a
   changed byte format. *)

open Xentry_faultinject
module Reg = Xentry_isa.Reg
module Exit_reason = Xentry_vmm.Exit_reason
module Pmu = Xentry_machine.Pmu
module Framework = Xentry_core.Framework
module Protocol = Xentry_cluster.Protocol

let snap inst branches loads stores = { Pmu.inst; branches; loads; stores }
let reason id = Option.get (Exit_reason.of_id id)

let record ~cls ~target ~bit ~width ?window ~step ~reason_id ~activated
    ~consequence ~verdict ?latency ?undetected ?signature golden_signature =
  {
    Outcome.fault = { Fault.cls; target; bit; width; window; step };
    reason = reason reason_id;
    activated;
    consequence;
    verdict;
    latency;
    undetected;
    signature;
    golden_signature;
  }

(* Extreme and negative words included: the high bit of every 64-bit
   field must travel. *)
let records =
  [
    record ~cls:Fault.Reg_single_bit ~target:(Fault.Reg (Reg.Gpr Reg.R13))
      ~bit:12 ~width:1 ~step:34 ~reason_id:3 ~activated:true
      ~consequence:(Outcome.Short_latency Outcome.Hv_crash)
      ~verdict:
        (Framework.Detected
           { technique = Framework.Hw_exception_detection; latency = Some 5 })
      ~latency:5
      ~signature:(snap 120 30 17 9)
      (snap 118 30 16 9);
    record ~cls:Fault.Reg_multi_bit ~target:(Fault.Reg Reg.Rflags) ~bit:60
      ~width:4 ~step:0 ~reason_id:0 ~activated:false
      ~consequence:Outcome.Masked ~verdict:Framework.Clean (snap 1 0 0 0);
    record ~cls:Fault.Set_transient ~target:(Fault.Reg Reg.Rip) ~bit:63
      ~width:1 ~window:17 ~step:999 ~reason_id:7 ~activated:true
      ~consequence:(Outcome.Long_latency Outcome.App_sdc)
      ~verdict:Framework.Clean ~undetected:Outcome.Stack_values
      ~signature:(snap max_int min_int (-1) 0)
      (snap 4096 512 256 128);
    record ~cls:Fault.Mem_word ~target:(Fault.Mem (-8L)) ~bit:0 ~width:1
      ~step:123_456_789 ~reason_id:1 ~activated:true
      ~consequence:(Outcome.Long_latency Outcome.One_vm_failure)
      ~verdict:
        (Framework.Detected
           { technique = Framework.Vm_transition; latency = None })
      (snap 77 7 7 7);
    record ~cls:Fault.Tlb_entry ~target:(Fault.Tlb 0x12345L) ~bit:31 ~width:1
      ~step:5 ~reason_id:2 ~activated:false
      ~consequence:Outcome.Not_activated ~verdict:Framework.Clean
      (snap 0 0 0 0);
    record ~cls:Fault.Page_table_entry
      ~target:(Fault.Pte (Int64.add Int64.min_int 0x1000L))
      ~bit:47 ~width:1 ~step:42 ~reason_id:4 ~activated:true
      ~consequence:(Outcome.Long_latency Outcome.All_vm_failure)
      ~verdict:
        (Framework.Detected
           { technique = Framework.Ras_report; latency = Some max_int })
      ~latency:max_int ~signature:(snap 9 8 7 6) (snap 9 8 7 5);
  ]

let detector =
  let open Xentry_mlearn in
  let leaf label confidence population =
    Tree.Leaf { label; confidence; population }
  in
  Xentry_core.Detector.make ~version:3 ~origin:Xentry_core.Detector.Streamed
    ~trained_on:36
    (Xentry_core.Transition_detector.of_tree
       (Tree.of_parts
          ~root:
            (Tree.Split
               {
                 feature = 1;
                 threshold = 2.5;
                 low = leaf 0 0.75 20;
                 high =
                   Tree.Split
                     {
                       feature = 0;
                       threshold = -0.125;
                       low = leaf 1 1.0 6;
                       high = leaf 0 0.9 10;
                     };
               })
          ~feature_names:[| "x"; "y" |] ~n_classes:2))

let detection =
  {
    Xentry_core.Pipeline.hw_exceptions = true;
    sw_assertions = false;
    vm_transition = true;
    ras_polling = false;
  }

let config =
  {
    Campaign.Config.seed = 4242;
    injections = 30;
    faults_per_run = 64;
    benchmark = Xentry_workload.Profile.Postmark;
    mode = Xentry_workload.Profile.HVM;
    detector = Some detector;
    framework = detection;
    fault_classes =
      [ Fault.Reg_single_bit; Fault.Mem_word; Fault.Page_table_entry ];
    fuel = 2000;
    hardened = true;
    prune = false;
    jobs = None;
  }

(* One message per protocol tag, in tag order (1–12). *)
let msgs =
  [
    Protocol.Hello { jobs = 4 };
    Protocol.Campaign_spec config;
    Protocol.Lease [ 0; 3; 17 ];
    Protocol.Shard_result { shard = 7; records };
    Protocol.Serve_spec
      {
        worker_index = 1;
        seed = -99;
        detection;
        detector = Some detector;
        fuel = 20_000;
      };
    Protocol.Serve_request
      {
        seq = 12345;
        req =
          {
            Xentry_vmm.Request.reason = reason 3;
            args = [| 7L; 99L; Int64.min_int; -1L; 0L; 0L; 0L; 0L |];
            guest = [| 1L; 2L; 3L; 0L; 0L; Int64.max_int |];
          };
      };
    Protocol.Serve_response { seq = 12345; detected = true; shed = false };
    Protocol.Drain;
    Protocol.Telemetry_drain "{\"counters\":{}}";
    Protocol.Bye;
    Protocol.Detector_push detector;
    Protocol.Detector_ack { worker_index = 1; version = 3 };
  ]
