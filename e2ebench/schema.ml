(* Every metric the benchmark reports, with its unit, in print order.
   BENCHMARK.json lists the same names. A workload sets what it
   measures; per-layer metrics of a layer a workload does not use stay
   0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("samples_per_s", "samples/s");
    ("latency_p50_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Op types given their own kernel-time row; the rest is "other". *)
let kernel_ops =
  [
    "Conv2D";
    "Conv2DGradFilter";
    "Conv2DGradInput";
    "MatMul";
    "MaxPool";
    "MaxPoolGrad";
    "FusedElementwise";
    "Add";
    "SumToShape";
    "ReluGrad";
  ]

let per_layer =
  [
    ("session.compile_ms", "ms");
    ("session.optimize_ms", "ms");
    ("session.place_partition_ms", "ms");
    ("session.cache_misses", "count");
    ("executor.kernels_per_step", "count");
    ("executor.overhead_ms_per_step", "ms");
    ("executor.overhead_us_per_kernel", "us");
    ("kernels.ms_per_step", "ms");
  ]
  @ List.map (fun op -> ("kernels." ^ op ^ ".ms_per_step", "ms")) kernel_ops
  @ [
      ("kernels.other.ms_per_step", "ms");
      ("kernels.contraction_gflop_per_step", "GFLOP");
      ("kernels.contraction_gflops", "GFLOP/s");
      ("memory.peak_live_mb", "MB");
      ("memory.pool_hit_frac", "frac");
      ("memory.minor_mwords_per_step", "Mwords");
      ("memory.major_gcs_per_1k_ops", "count");
      ("serving.submit_us_p50", "us");
      ("serving.batch_run_ms", "ms");
      ("serving.queue_wait_ms_p50", "ms");
      ("serving.mean_batch", "count");
      ("serving.shed", "count");
      ("serving.queue_depth_max", "count");
      ("net.bytes_per_step", "bytes");
      ("net.frames_per_step", "count");
      ("net.rpcs_per_step", "count");
      ("rendezvous.bytes_per_step", "bytes");
      ("wire.encode_us_per_step", "us");
      ("wire.decode_us_per_step", "us");
      ("net.send_ms_per_step", "ms");
      ("net.wait_ms_per_step", "ms");
      ("ps.kernel_ms_per_step", "ms");
      ("net.rpc_failures", "count");
      ("load.latency_p99_ms", "ms");
      ("load.late_ms_p99", "ms");
      ("trace.overhead_frac", "frac");
    ]

(* Values measured by one run, keyed by metric name. *)
type values = (string, float) Hashtbl.t

let create () : values = Hashtbl.create 64

let set (v : values) name x =
  if
    not
      (List.exists (List.mem_assoc name) [ end_to_end; per_layer ])
  then invalid_arg ("Schema.set: unknown metric " ^ name);
  Hashtbl.replace v name x

(* The run's result: its checks, its operation counts and its values.
   Prints one line per check and metric, then the JSON result as the
   last line of standard output. *)
type result = {
  checks : (string * bool) list;
  attempted : int;
  failed_ops : int;
  values : values;
}

let json_number x = Printf.sprintf "%.17g" x

let print ~traced r =
  let schema = if traced then per_layer else end_to_end in
  let finite = ref true in
  List.iter
    (fun (name, ok) -> Printf.printf "check %-44s %s\n" name (if ok then "PASS" else "FAIL"))
    r.checks;
  let metrics =
    List.map
      (fun (name, unit) ->
        let x =
          match Hashtbl.find_opt r.values name with
          | Some x -> x
          | None -> if traced then 0.0 else nan
        in
        let x =
          if Float.is_finite x then x
          else begin
            finite := false;
            Printf.printf "metric %s was not measured\n" name;
            0.0
          end
        in
        Printf.printf "%-40s %14.4f %s\n" name x unit;
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Spans.json_string name)
          (json_number x) (Spans.json_string unit))
      schema
  in
  let failed_checks =
    List.length (List.filter (fun (_, ok) -> not ok) r.checks)
    + if !finite then 0 else 1
  in
  Printf.printf "attempted %d, failed %d (%d operations, %d checks)\n"
    r.attempted
    (r.failed_ops + failed_checks)
    r.failed_ops failed_checks;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (failed_checks = 0 && r.failed_ops = 0)
    r.attempted
    (r.failed_ops + failed_checks)
    (String.concat "," metrics)
