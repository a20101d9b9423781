(* Measurement substrate of the benchmark: one clock, GC and peak-RSS
   readings, in-memory spans with per-layer self time, telemetry
   readings (this process plus cluster workers' dumps), exact
   quantiles, and the JSON the benchmark prints. *)

module Tm = Xentry_util.Telemetry

(* Every duration in the benchmark comes from this clock. *)
let now = Xentry_util.Clock.monotonic

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- statistics ---------------------------------------------------------- *)

(* Linear interpolation between closest ranks over a copy of [xs]. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5
let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* --- process readings ---------------------------------------------------- *)

(* A "Key:  1234 kB" field of /proc/self/status, in KiB. *)
let proc_status_kib key =
  let prefix = key ^ ":" in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> None
            | line when String.starts_with ~prefix line ->
                let rest =
                  String.sub line (String.length prefix)
                    (String.length line - String.length prefix)
                in
                Scanf.sscanf_opt rest " %d kB" Fun.id
            | _ -> go ()
          in
          go ())

let peak_rss_mib () =
  match proc_status_kib "VmHWM" with
  | Some kib -> float_of_int kib /. 1024.
  | None -> failwith "VmHWM unavailable in /proc/self/status"

(* Reset VmHWM to the current resident set (Linux: "5" written to
   /proc/self/clear_refs), so the next reading is the peak since now.
   False when the kernel refuses; readings then stay process-wide. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> false
  | oc -> (
      match
        output_string oc "5";
        close_out oc
      with
      | () -> true
      | exception Sys_error _ ->
          close_out_noerr oc;
          false)

type gc = {
  minor_collections : int;
  major_collections : int;
  minor_words : float;
  top_heap_words : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    minor_words = s.Gc.minor_words;
    top_heap_words = s.Gc.top_heap_words;
  }

let gc_delta a b =
  {
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
    minor_words = b.minor_words -. a.minor_words;
    top_heap_words = b.top_heap_words;
  }

(* --- spans --------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  layer : string;
  domain : int;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let next_id = Atomic.make 1
let spans_lock = Mutex.create ()
let spans : span list ref = ref []

(* [span ~parent ~layer name f] runs [f id] and, while tracing,
   records the interval under [parent].  Safe from any domain. *)
let span ?(parent = 0) ~layer name f =
  if not !tracing then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = now () in
    let finish () =
      let s =
        {
          id;
          parent;
          name;
          layer;
          domain = (Domain.self () :> int);
          t0;
          t1 = now ();
        }
      in
      Mutex.protect spans_lock (fun () -> spans := s :: !spans)
    in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let recorded_spans () = List.rev !spans

(* Length of the union of [ivs] clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if a > cb then (total +. (cb -. ca), (a, b)) else (total, (ca, Float.max cb b)))
      (0., (lo, lo))
      ivs
  in
  total +. (snd last -. fst last)

(* A span's self time is its duration minus the part of its interval
   its children cover; summed per layer. *)
let self_time_by_layer all =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.t0, s.t1))
    all;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let self = s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids in
      let prev = Option.value ~default:0. (Hashtbl.find_opt by_layer s.layer) in
      Hashtbl.replace by_layer s.layer (prev +. self))
    all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer [] |> List.sort compare

(* --- telemetry readings -------------------------------------------------- *)

(* Telemetry JSON dumps received from cluster worker processes; their
   counters and histograms add to this process's own. *)
let worker_dumps : string list ref = ref []

let find_from s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    let rec matches k = k = m || (s.[i + k] = sub.[k] && matches (k + 1)) in
    if i + m > n then None else if matches 0 then Some i else go (i + 1)
  in
  go from

(* A dump is [{"counters": {..}, "histograms": {..}, "events": [..]}];
   [section dump a b] is the text between markers [a] and [b]. *)
let section dump a b =
  match find_from dump a 0 with
  | None -> ""
  | Some i -> (
      let i = i + String.length a in
      match find_from dump b i with
      | Some j -> String.sub dump i (j - i)
      | None -> String.sub dump i (String.length dump - i))

let number_after s i conv =
  Scanf.sscanf (String.sub s i (String.length s - i)) conv Fun.id

let dump_counter dump name =
  let d = section dump "\"counters\": {" "\"histograms\": {" in
  let key = Printf.sprintf "\"%s\": " name in
  match find_from d key 0 with
  | Some i -> number_after d (i + String.length key) " %d"
  | None -> 0

let dump_histogram dump name =
  let d = section dump "\"histograms\": {" "\"events\": [" in
  let key = Printf.sprintf "\"%s\": {\"count\": " name in
  match find_from d key 0 with
  | None -> (0, 0)
  | Some i -> (
      let j = i + String.length key in
      let count = number_after d j " %d" in
      match find_from d "\"sum\": " j with
      | Some k -> (count, number_after d (k + 7) " %d")
      | None -> (count, 0))

(* Every ["key": <float>] field value in the events part of a dump. *)
let dump_event_floats dump key =
  let d = section dump "\"events\": [" "\000" in
  let pat = Printf.sprintf "\"%s\": " key in
  let rec go from acc =
    match find_from d pat from with
    | None -> List.rev acc
    | Some i ->
        let j = i + String.length pat in
        go j (number_after d j " %f" :: acc)
  in
  go 0 []

let counter name =
  Tm.counter_value (Tm.counter name)
  + List.fold_left (fun acc d -> acc + dump_counter d name) 0 !worker_dumps

(* (count, sum) of a histogram; spans record nanoseconds. *)
let histogram name =
  let h = Tm.histogram name in
  List.fold_left
    (fun (c, s) d ->
      let c', s' = dump_histogram d name in
      (c + c', s + s'))
    (Tm.histogram_count h, Tm.histogram_sum h)
    !worker_dumps

let histogram_sum_s name = float_of_int (snd (histogram name)) *. 1e-9

let histogram_mean name =
  let c, s = histogram name in
  fratio s c

(* Start a clean telemetry window (single-domain sections only). *)
let telemetry_window ~on =
  Tm.reset ();
  worker_dumps := [];
  if on then Tm.enable () else Tm.disable ()

(* --- JSON ---------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision, always a valid JSON number. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let json_list items = "[" ^ String.concat ", " items ^ "]"
