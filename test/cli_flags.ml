(* CLI check: [xentry serve --workers N] must refuse every option the
   cluster front would accept and silently ignore — exit non-zero,
   and name the option on stderr.  Run as
   [cli_flags.exe PATH-TO-XENTRY]. *)

let run exe args =
  let err = Filename.temp_file "xentry-cli-flags" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        Unix.create_process exe (Array.of_list (exe :: args)) null null fd
      in
      Unix.close fd;
      Unix.close null;
      let _, status = Unix.waitpid [] pid in
      (status, In_channel.with_open_bin err In_channel.input_all))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let () =
  let exe =
    match Sys.argv with
    | [| _; exe |] -> exe
    | _ ->
        prerr_endline "usage: cli_flags.exe PATH-TO-XENTRY";
        exit 2
  in
  let cases =
    [
      ("--storm", [ "--storm"; "0,1" ]);
      ("--recovery", [ "--recovery"; "microboot" ]);
      ("--retrain", [ "--retrain" ]);
      ("--rungs", [ "--rungs"; "front.xart" ]);
      ("--deadline-us", [ "--deadline-us"; "500" ]);
    ]
  in
  let failures = ref 0 in
  List.iter
    (fun (flag, extra) ->
      let args =
        [ "serve"; "--workers"; "2"; "--duration"; "0.1"; "--rate"; "100" ]
        @ extra
      in
      match run exe args with
      | Unix.WEXITED code, err when code <> 0 && contains err flag ->
          Printf.printf "cli_flags: serve --workers %s rejected (exit %d)\n"
            flag code
      | Unix.WEXITED code, err ->
          Printf.eprintf
            "FAIL: serve --workers %s exited %d, stderr %S (expected a \
             non-zero exit naming the option)\n"
            flag code err;
          incr failures
      | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
          Printf.eprintf "FAIL: serve --workers %s killed by signal %d\n" flag n;
          incr failures)
    cases;
  if !failures > 0 then exit 1
