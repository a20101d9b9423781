open Xentry_machine
open Xentry_vmm

type region_class =
  | User_gpr of int * int64
  | User_ctl
  | Traps
  | Vcpu_time
  | Vcpu_event
  | Kernel

type diff =
  | Dom_diff of { dom : int; cls : region_class }
  | Global_time_diff
  | Hv_global_diff
  | Stack_diff
  | Guest_reg_diff of Xentry_isa.Reg.gpr * int64

let differs ga fa ~addr ~len =
  not (Memory.region_equal ga fa ~addr ~len)

(* Per-domain sub-regions with their classes: the saved user GPRs, one
   8-byte slot each — compared only when the 128 bytes holding all of
   them differ, which most faulted runs leave alone — then the rest. *)
let gpr_slots dom =
  let vcpu = Layout.vcpu_area ~dom ~vcpu:0 in
  List.init Xentry_isa.Reg.gpr_count (fun i ->
      (i, Int64.add vcpu (Int64.of_int (i * 8))))

let dom_subregions dom =
  let vcpu = Layout.vcpu_area ~dom ~vcpu:0 in
  let vi = Layout.vcpu_info ~dom ~vcpu:0 in
  let si = Layout.shared_info dom in
  [
    (User_ctl, Int64.add vcpu Layout.vcpu_user_rip, 16);
    (Traps, Int64.add vcpu Layout.vcpu_pending_traps, Layout.vcpu_trap_slots * 8);
    (Vcpu_event, Int64.add vi Layout.vi_upcall_pending, 16);
    (Vcpu_time, Int64.add vi Layout.vi_time_version, 24);
    (* Shared-info event bitmaps (kernel state)... *)
    (Kernel, si, 0x80);
    (* ...and the wallclock fields, which are time values. *)
    (Vcpu_time, Int64.add si Layout.si_wc_sec, 16);
    (Kernel, Layout.evtchn_entry ~dom ~port:0, Layout.evtchn_ports * 16);
    (Kernel, Layout.grant_entry ~dom 0, Layout.grant_entries * 16);
  ]

let diffs ~golden ~faulted =
  let ga = Hypervisor.memory golden and fa = Hypervisor.memory faulted in
  let acc = ref [] in
  let ndoms = Array.length (Hypervisor.domains golden) in
  for dom = 0 to ndoms - 1 do
    if
      differs ga fa ~addr:(Layout.vcpu_area ~dom ~vcpu:0)
        ~len:(Xentry_isa.Reg.gpr_count * 8)
    then
      List.iter
        (fun (i, addr) ->
          if differs ga fa ~addr ~len:8 then
            acc :=
              Dom_diff { dom; cls = User_gpr (i, Memory.load64 ga addr) }
              :: !acc)
        (gpr_slots dom);
    List.iter
      (fun (cls, addr, len) ->
        if differs ga fa ~addr ~len then acc := Dom_diff { dom; cls } :: !acc)
      (dom_subregions dom)
  done;
  List.iter
    (fun (_, addr, len) ->
      if differs ga fa ~addr ~len then acc := Global_time_diff :: !acc)
    (Vtime.time_regions ());
  if differs ga fa ~addr:Layout.hv_global_base ~len:0x40 then
    acc := Hv_global_diff :: !acc;
  if
    differs ga fa ~addr:Layout.hv_stack_base ~len:Layout.hv_stack_size
  then acc := Stack_diff :: !acc;
  (* Live guest registers at VM entry. *)
  let gc = Hypervisor.cpu golden and fc = Hypervisor.cpu faulted in
  List.iter
    (fun g ->
      let gv = Cpu.get_gpr gc g in
      if gv <> Cpu.get_gpr fc g then acc := Guest_reg_diff (g, gv) :: !acc)
    Xentry_isa.Reg.[ RAX; RBX; RCX; RDX; RSI; RDI ];
  List.rev !acc

(* Pointer-like golden values crash when corrupted; small data values
   silently corrupt results (paper §II's cpuid example: a wrong eax is
   consumed later and likely fatal). *)
let gpr_consequence golden_value =
  if Int64.unsigned_compare golden_value 0x10000L >= 0 then Outcome.App_crash
  else Outcome.App_sdc

let consequence ~current_dom ~faulted_stop diff_list =
  match faulted_stop with
  | Cpu.Hw_fault _ | Cpu.Halted -> Outcome.Short_latency Outcome.Hv_crash
  | Cpu.Out_of_fuel -> Outcome.Short_latency Outcome.Hv_hang
  | Cpu.Assertion_failure _ ->
      (* Detection-disabled runs never stop on assertions; treat a
         stray one as a crash. *)
      Outcome.Short_latency Outcome.Hv_crash
  | Cpu.Vm_entry ->
      (* Stack residue alone is not guest-visible. *)
      let visible =
        List.filter (fun d -> d <> Stack_diff) diff_list
      in
      if visible = [] then Outcome.Masked
      else
        let severity = ref 0 in
        let worst = ref Outcome.App_sdc in
        let consider level kind =
          if level > !severity then begin
            severity := level;
            worst := kind
          end
        in
        List.iter
          (fun d ->
            match d with
            | Hv_global_diff -> consider 5 Outcome.All_vm_failure
            | Dom_diff { dom; _ } when dom = 0 && current_dom <> 0 ->
                consider 5 Outcome.All_vm_failure
            | Dom_diff { dom; cls } when dom = current_dom -> (
                match cls with
                | Kernel | Vcpu_event ->
                    if dom = 0 then consider 5 Outcome.All_vm_failure
                    else consider 3 Outcome.One_vm_failure
                | Traps | User_ctl -> consider 2 Outcome.App_crash
                | User_gpr (_, golden_value) -> (
                    match gpr_consequence golden_value with
                    | Outcome.App_crash -> consider 2 Outcome.App_crash
                    | _ -> consider 1 Outcome.App_sdc)
                | Vcpu_time -> consider 1 Outcome.App_sdc)
            | Dom_diff { dom = _; _ } -> consider 4 Outcome.One_vm_failure
            | Global_time_diff -> consider 1 Outcome.App_sdc
            | Guest_reg_diff (_, golden_value) -> (
                match gpr_consequence golden_value with
                | Outcome.App_crash -> consider 2 Outcome.App_crash
                | _ -> consider 1 Outcome.App_sdc)
            | Stack_diff -> ())
          visible;
        Outcome.Long_latency !worst

let undetected_class ~fault ~signature_differs diff_list =
  if signature_differs then Outcome.Mis_classify
  else
    let has p = List.exists p diff_list in
    let is_time = function
      | Global_time_diff | Dom_diff { cls = Vcpu_time; _ } -> true
      | _ -> false
    in
    let is_severe = function
      | Hv_global_diff | Dom_diff { cls = Kernel; _ }
      | Dom_diff { cls = Vcpu_event; _ } ->
          true
      | _ -> false
    in
    (* A corrupted time computation typically lands in several places
       at once (deadline, cached snapshot, the value handed to the
       guest); attribute to time values whenever time state is among
       the corruptions and nothing kernel-critical is. *)
    if has is_time && not (has is_severe) then Outcome.Time_values
    else if
      fault.Fault.target = Fault.Reg (Xentry_isa.Reg.Gpr Xentry_isa.Reg.RSP)
      || has (fun d -> d = Stack_diff)
    then Outcome.Stack_values
    else Outcome.Other_values
