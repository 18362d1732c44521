(* The layered end-to-end benchmark. Run one workload:

     main.exe --workload train_cnn|serve_cnn|dist_ps --seed N
              --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics; --trace 1 is a separate
   traced run that reports the per-layer metrics and writes its spans
   to .bench_out/trace_<workload>.json. The last line of standard
   output is the JSON result. See README.md. *)

let out_dir = ".bench_out"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and ps_child = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME train_cnn, serve_cnn or dist_ps");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ( "--ps-child",
        Arg.Set_string ps_child,
        "SPEC internal: serve the ps task of dist_ps for this cluster spec" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  (* One intra-op thread per process. On a host of a few shared cores,
     a kernel sharded over every core waits for its slowest shard, and
     a core taken by a neighbour stalls the whole step: the figures
     then follow the host's load, not the program. *)
  Octf_tensor.Parallel.set_threads 1;
  if !ps_child <> "" then Dist_ps.child ~cluster:!ps_child ~seed:!seed ~traced
  else begin
    let run =
      match !workload with
      | "train_cnn" -> Train_cnn.run
      | "serve_cnn" -> Serve_cnn.run
      | "dist_ps" -> Dist_ps.run
      | w ->
          Printf.eprintf "unknown workload %S\n" w;
          exit 2
    in
    Spans.enabled := traced;
    let result = run ~seed:!seed ~seconds:!seconds ~traced in
    if traced then begin
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path = Filename.concat out_dir ("trace_" ^ !workload ^ ".json") in
      Spans.write path;
      Printf.printf "wrote %s (%d spans)\n" path !Spans.count
    end;
    Schema.print ~traced result
  end
