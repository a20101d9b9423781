(* Deadline guard for tests that block on cross-domain wake-ups.

   A lost wake-up in the serve engines is a hang, not a slowdown, and a
   hung test would stall the whole test run without saying why.
   [run ~seconds what f] runs [f ()] under a monitor domain; if [f] has
   not returned by the deadline, the monitor reports [what] on stderr
   and exits the process with status 2. *)

(* Taken at startup: a test runner that captures a test's output
   redirects stderr, and the report must reach the real one. *)
let stderr_at_start = Unix.dup Unix.stderr

let report msg =
  let line = msg ^ "\n" in
  ignore (Unix.write_substring stderr_at_start line 0 (String.length line))

let run ~seconds what f =
  let finished = Atomic.make false in
  let deadline = Xentry_util.Clock.monotonic () +. seconds in
  let monitor =
    Domain.spawn (fun () ->
        while
          (not (Atomic.get finished))
          && Xentry_util.Clock.monotonic () < deadline
        do
          Unix.sleepf 0.05
        done;
        if not (Atomic.get finished) then begin
          report
            (Printf.sprintf
               "FAIL: %s still running after %.0f s (lost wake-up?); aborting"
               what seconds);
          Unix._exit 2
        end)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join monitor)
    f
