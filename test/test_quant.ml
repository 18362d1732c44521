(* Quantization (§5): 8-bit affine codes with gemmlowp-style integer
   matmul accumulation — kernel arithmetic, the builder surface, the
   calibration API and the Quantize optimizer pass. Property tests pin
   the code invariants every other layer assumes: ranges include 0.0
   and are never degenerate, round-trip error is at most one
   quantization step, codes live in 0..255. *)

open Octf_tensor
open Octf
module B = Builder
module Q = Quant_kernels

let metric name =
  Option.value ~default:0.0 (Metrics.find_value Metrics.default name)

(* ------------------------- legacy unit tests ------------------------ *)

let test_roundtrip_error_bound () =
  let b = B.create () in
  let x = B.placeholder b ~shape:[| 16 |] Dtype.F32 in
  let q, lo, hi = B.quantize b x in
  let back = B.dequantize b q lo hi in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let rng = Rng.create 21 in
  let point = Tensor.uniform rng [| 16 |] ~lo:(-4.0) ~hi:4.0 in
  let v = List.hd (Session.run ~feeds:[ (x, point) ] s [ back ]) in
  (* Max quantization error is half a step: (hi - lo) / 255 / 2 ~ 0.016. *)
  for i = 0 to 15 do
    let err = Float.abs (Tensor.flat_get_f v i -. Tensor.flat_get_f point i) in
    if err > 8.0 /. 255.0 then Alcotest.failf "error %f too large" err
  done

let test_codes_in_range () =
  let b = B.create () in
  let x = B.const b (Tensor.of_float_array [| 3 |] [| -1.0; 0.0; 3.0 |]) in
  let q, _, _ = B.quantize b x in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let codes = Tensor.to_int_array (List.hd (Session.run s [ q ])) in
  Array.iter
    (fun c -> if c < 0 || c > 255 then Alcotest.fail "code out of range")
    codes;
  (* min maps to 0 and max to 255 *)
  Alcotest.(check int) "min code" 0 codes.(0);
  Alcotest.(check int) "max code" 255 codes.(2)

let test_quantized_matmul_close () =
  let b = B.create () in
  let xa = B.placeholder b ~shape:[| 4; 6 |] Dtype.F32 in
  let xb = B.placeholder b ~shape:[| 6; 3 |] Dtype.F32 in
  let exact = B.matmul b xa xb in
  let approx = B.quantized_matmul b (B.quantize b xa) (B.quantize b xb) in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let rng = Rng.create 31 in
  let a = Tensor.uniform rng [| 4; 6 |] ~lo:(-1.0) ~hi:1.0 in
  let c = Tensor.uniform rng [| 6; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let feeds = [ (xa, a); (xb, c) ] in
  match Session.run ~feeds s [ exact; approx ] with
  | [ e; ap ] ->
      Alcotest.(check bool) "within 8-bit tolerance" true
        (Tensor.approx_equal ~tol:0.05 e ap)
  | _ -> Alcotest.fail "arity"

let test_quantize_constant_tensor () =
  (* A constant tensor still gets a non-degenerate range. *)
  let b = B.create () in
  let x = B.const b (Tensor.full Dtype.F32 [| 4 |] 2.0) in
  let q, lo, hi = B.quantize b x in
  let back = B.dequantize b q lo hi in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let v = List.hd (Session.run s [ back ]) in
  Alcotest.(check bool) "close to 2" true
    (Float.abs (Tensor.flat_get_f v 0 -. 2.0) < 0.02)

(* ------------------------ property tests ---------------------------- *)

let tensor_of_list vs =
  Tensor.of_float_array [| List.length vs |] (Array.of_list vs)

(* Finite floats in a range wide enough to exercise scale diversity but
   free of overflow concerns. *)
let float_gen = QCheck.float_range (-1000.0) 1000.0

(* Round trip through codes moves no element by more than one
   quantization step (the analytic bound is half a step for interior
   values; clamping at the range ends keeps it under a full step).
   Covers empty, constant and negative-only tensors through the list
   generator and the two mapped variants below. *)
let roundtrip_ok vs =
  let t = tensor_of_list vs in
  let codes, lo, hi = Q.quantize t in
  let step = (hi -. lo) /. Q.levels in
  let back = Q.dequantize codes lo hi in
  let ok = ref true in
  List.iteri
    (fun i v ->
      let err = Float.abs (Tensor.flat_get_f back i -. v) in
      if err > step +. 1e-9 then ok := false)
    vs;
  !ok

let prop_roundtrip_one_step =
  QCheck.Test.make ~name:"roundtrip error <= one step" ~count:200
    QCheck.(small_list float_gen)
    roundtrip_ok

let prop_roundtrip_negative_only =
  QCheck.Test.make ~name:"roundtrip on negative-only tensors" ~count:100
    QCheck.(small_list float_gen)
    (fun vs -> roundtrip_ok (List.map (fun v -> -.Float.abs v -. 0.5) vs))

let prop_roundtrip_constant =
  QCheck.Test.make ~name:"roundtrip on constant tensors" ~count:100
    QCheck.(pair float_gen (int_range 1 32))
    (fun (c, n) -> roundtrip_ok (List.init n (fun _ -> c)))

(* The range invariants everything else assumes: lo <= 0 <= hi, never
   degenerate, and the zero-point code decodes to (nearly) 0.0. *)
let prop_range_invariants =
  QCheck.Test.make ~name:"range includes zero, never degenerate" ~count:200
    QCheck.(small_list float_gen)
    (fun vs ->
      let lo, hi = Q.range_of (tensor_of_list vs) in
      let zp = Q.zero_point lo hi in
      let step = (hi -. lo) /. Q.levels in
      let zp_value = lo +. (float_of_int zp *. step) in
      lo <= 0.0 && hi >= 0.0
      && hi -. lo > 1e-9
      && zp >= 0 && zp <= 255
      && Float.abs zp_value <= (step /. 2.0) +. 1e-9)

let prop_codes_in_range =
  QCheck.Test.make ~name:"codes always in 0..255" ~count:200
    QCheck.(small_list float_gen)
    (fun vs ->
      let codes, _, _ = Q.quantize (tensor_of_list vs) in
      let ok = ref true in
      for i = 0 to Tensor.numel codes - 1 do
        let c = Tensor.flat_get_i codes i in
        if c < 0 || c > 255 then ok := false
      done;
      !ok)

let test_empty_tensor () =
  (* numel = 0: quantize yields an empty code tensor with a sane range. *)
  let t = Tensor.of_float_array [| 0 |] [||] in
  let codes, lo, hi = Q.quantize t in
  Alcotest.(check int) "no codes" 0 (Tensor.numel codes);
  Alcotest.(check bool) "sane range" true (lo <= 0.0 && hi > lo);
  Alcotest.(check int) "dequantize empty" 0
    (Tensor.numel (Q.dequantize codes lo hi))

let test_quantize_with_range_clamps () =
  let t = Tensor.of_float_array [| 3 |] [| -10.0; 1.0; 99.0 |] in
  let codes = Q.quantize_with_range t 0.0 4.0 in
  let back = Q.dequantize codes 0.0 4.0 in
  Alcotest.(check (float 1e-6)) "below clamps to lo" 0.0
    (Tensor.flat_get_f back 0);
  Alcotest.(check (float 1e-6)) "above clamps to hi" 4.0
    (Tensor.flat_get_f back 2);
  Alcotest.(check bool) "interior close" true
    (Float.abs (Tensor.flat_get_f back 1 -. 1.0) <= 4.0 /. 255.0)

(* -------------------- structured kernel errors ---------------------- *)

(* Regression: shape violations used to escape as bare
   [Invalid_argument], bypassing the session's typed error path. *)
let test_matmul_shape_mismatch_structured () =
  let qa, alo, ahi = Q.quantize (Tensor.ones Dtype.F32 [| 2; 3 |]) in
  let qb, blo, bhi = Q.quantize (Tensor.ones Dtype.F32 [| 4; 5 |]) in
  match Q.quantized_matmul qa alo ahi qb blo bhi with
  | exception Step_failure.Error { cause = Step_failure.Invalid_graph _; _ } ->
      ()
  | exception Invalid_argument m ->
      Alcotest.failf "bare Invalid_argument escaped: %s" m
  | exception e ->
      Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "shape mismatch not detected"

let test_degenerate_range_structured () =
  let t = Tensor.ones Dtype.F32 [| 4 |] in
  match Q.quantize_with_range t 2.0 2.0 with
  | exception Step_failure.Error { cause = Step_failure.Invalid_graph _; _ } ->
      ()
  | exception e ->
      Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "degenerate range not detected"

(* ----------------------- richer kernel shapes ----------------------- *)

let test_quantized_conv2d_close () =
  let b = B.create () in
  let x = B.placeholder b ~shape:[| 2; 6; 6; 3 |] Dtype.F32 in
  let f = B.placeholder b ~shape:[| 3; 3; 3; 4 |] Dtype.F32 in
  let exact = B.conv2d b ~strides:(1, 1) ~padding:`Same x f in
  let approx =
    B.quantized_conv2d b ~strides:(1, 1) ~padding:`Same (B.quantize b x)
      (B.quantize b f)
  in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let rng = Rng.create 41 in
  let xv = Tensor.uniform rng [| 2; 6; 6; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let fv = Tensor.uniform rng [| 3; 3; 3; 4 |] ~lo:(-1.0) ~hi:1.0 in
  match Session.run ~feeds:[ (x, xv); (f, fv) ] s [ exact; approx ] with
  | [ e; ap ] ->
      Alcotest.(check bool) "conv within 8-bit tolerance" true
        (Tensor.approx_equal ~tol:0.25 e ap)
  | _ -> Alcotest.fail "arity"

let test_batched_quantized_matmul () =
  (* Rank-3 lhs against shared 2-D weights: every batch slice must match
     its own 2-D quantized product. *)
  let rng = Rng.create 51 in
  let a = Tensor.uniform rng [| 3; 4; 6 |] ~lo:(-1.0) ~hi:1.0 in
  let w = Tensor.uniform rng [| 6; 5 |] ~lo:(-1.0) ~hi:1.0 in
  let qa, alo, ahi = Q.quantize a in
  let qw, wlo, whi = Q.quantize w in
  let out = Q.quantized_matmul qa alo ahi qw wlo whi in
  Alcotest.(check (list int)) "batched shape" [ 3; 4; 5 ]
    (Array.to_list (Tensor.shape out));
  for s = 0 to 2 do
    (* slice s of the codes, re-packaged as a standalone 2-D quantized
       operand with the same range *)
    let slice = Tensor.zeros Dtype.F32 [| 4; 6 |] in
    for i = 0 to 23 do
      Tensor.flat_set_f slice i
        (Tensor.flat_get_f (Q.dequantize qa alo ahi) ((s * 24) + i))
    done;
    let qs = Q.quantize_with_range slice alo ahi in
    let expect = Q.quantized_matmul qs alo ahi qw wlo whi in
    for i = 0 to 19 do
      let got = Tensor.flat_get_f out ((s * 20) + i) in
      let want = Tensor.flat_get_f expect i in
      if Float.abs (got -. want) > 1e-5 then
        Alcotest.failf "slice %d diverges at %d: %f vs %f" s i got want
    done
  done

let test_epilogue_bias_relu () =
  let rng = Rng.create 61 in
  let a = Tensor.uniform rng [| 4; 6 |] ~lo:(-1.0) ~hi:1.0 in
  let w = Tensor.uniform rng [| 6; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let bias = Tensor.of_float_array [| 3 |] [| 0.5; -0.5; 0.1 |] in
  let qa, alo, ahi = Q.quantize a in
  let qw, wlo, whi = Q.quantize w in
  let got = Q.quantized_matmul ~bias ~relu:true qa alo ahi qw wlo whi in
  (* float reference: relu(a @ w + bias) *)
  for i = 0 to 3 do
    for j = 0 to 2 do
      let acc = ref (Tensor.flat_get_f bias j) in
      for p = 0 to 5 do
        acc :=
          !acc
          +. (Tensor.flat_get_f a ((i * 6) + p)
             *. Tensor.flat_get_f w ((p * 3) + j))
      done;
      let want = Float.max 0.0 !acc in
      let g = Tensor.flat_get_f got ((i * 3) + j) in
      if Float.abs (g -. want) > 0.06 then
        Alcotest.failf "epilogue diverges at (%d,%d): %f vs %f" i j g want
    done
  done

let test_matmul_q_codes_out () =
  (* The codes-out variant requantizes into the calibrated range; its
     dequantized value must match the float-out kernel within one output
     quantization step. *)
  let b = B.create () in
  let xa = B.placeholder b ~shape:[| 4; 6 |] Dtype.F32 in
  let xw = B.placeholder b ~shape:[| 6; 3 |] Dtype.F32 in
  let qa = B.quantize b xa and qw = B.quantize b xw in
  let float_out = B.quantized_matmul b qa qw in
  let oc, olo, ohi =
    B.quantized_matmul_q b ~out_range:(-4.0, 4.0) qa qw
  in
  let deq = B.dequantize b oc olo ohi in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  let rng = Rng.create 71 in
  let a = Tensor.uniform rng [| 4; 6 |] ~lo:(-1.0) ~hi:1.0 in
  let w = Tensor.uniform rng [| 6; 3 |] ~lo:(-1.0) ~hi:1.0 in
  match Session.run ~feeds:[ (xa, a); (xw, w) ] s [ float_out; deq ] with
  | [ f; d ] ->
      let step = 8.0 /. Q.levels in
      for i = 0 to Tensor.numel f - 1 do
        let err = Float.abs (Tensor.flat_get_f f i -. Tensor.flat_get_f d i) in
        if err > step +. 1e-6 then
          Alcotest.failf "requantize error %f exceeds a step at %d" err i
      done
  | _ -> Alcotest.fail "arity"

(* --------------------------- calibration ---------------------------- *)

let test_calibration_min_max () =
  let cal = Quant_calibration.create () in
  Quant_calibration.observe cal "act"
    (Tensor.of_float_array [| 2 |] [| 1.0; 3.0 |]);
  Quant_calibration.observe cal "act"
    (Tensor.of_float_array [| 2 |] [| -2.0; 2.0 |]);
  (match Quant_calibration.ranges cal "act" with
  | Some (lo, hi) ->
      Alcotest.(check (float 1e-9)) "lo" (-2.0) lo;
      Alcotest.(check (float 1e-9)) "hi" 3.0 hi
  | None -> Alcotest.fail "no range");
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "unobserved" None
    (Quant_calibration.ranges cal "other");
  Alcotest.(check (list string)) "observed" [ "act" ]
    (Quant_calibration.observed cal)

let test_calibration_sanitizes () =
  let cal = Quant_calibration.create () in
  (* positive-only observations: the range must still include zero *)
  Quant_calibration.observe cal "pos"
    (Tensor.of_float_array [| 2 |] [| 2.0; 5.0 |]);
  (match Quant_calibration.ranges cal "pos" with
  | Some (lo, hi) -> Alcotest.(check bool) "zero in" true (lo <= 0.0 && hi >= 5.0)
  | None -> Alcotest.fail "no range");
  (* constant observations: degenerate range widened *)
  Quant_calibration.observe cal "flat" (Tensor.zeros Dtype.F32 [| 4 |]);
  match Quant_calibration.ranges cal "flat" with
  | Some (lo, hi) -> Alcotest.(check bool) "widened" true (hi -. lo >= 1.0)
  | None -> Alcotest.fail "no range"

let test_calibration_ema () =
  let cal = Quant_calibration.create ~mode:(Quant_calibration.Ema 0.5) () in
  Quant_calibration.observe cal "act"
    (Tensor.of_float_array [| 1 |] [| 8.0 |]);
  Quant_calibration.observe cal "act"
    (Tensor.of_float_array [| 1 |] [| 4.0 |]);
  (match Quant_calibration.ranges cal "act" with
  | Some (_, hi) -> Alcotest.(check (float 1e-9)) "blended hi" 6.0 hi
  | None -> Alcotest.fail "no range");
  match Quant_calibration.create ~mode:(Quant_calibration.Ema 1.5) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad decay accepted"

(* ------------------------- the optimizer pass ----------------------- *)

(* A one-layer frozen model: matmul against Const weights with a Const
   bias and a relu, plus an Identity so the absorbed chain is interior
   (fetched nodes are never rewritten). *)
let one_layer_graph () =
  let b = B.create () in
  let rngw = Rng.create 81 in
  let x = B.placeholder b ~shape:[| 2; 4 |] Dtype.F32 in
  let w = B.const b (Tensor.uniform rngw [| 4; 3 |] ~lo:(-1.0) ~hi:1.0) in
  let bias = B.const b (Tensor.of_float_array [| 3 |] [| 0.2; -0.1; 0.3 |]) in
  let act = B.relu b ~name:"act1" (B.add b (B.matmul b x w) bias) in
  let out = B.identity b act in
  (b, x, out)

(* Count [op] among the nodes the fetch actually depends on: rewriting
   passes leave the losing originals disconnected in the graph, so a
   whole-graph count would see stale nodes. *)
let count_ops session (fetch : B.output) op =
  let graph = Session.graph session in
  let seen = Hashtbl.create 16 in
  let n = ref 0 in
  let rec walk id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      let node = Graph.get graph id in
      if node.Node.op_type = op then incr n;
      Array.iter (fun (e : Node.endpoint) -> walk e.Node.node_id) node.Node.inputs;
      List.iter walk node.Node.control_inputs
    end
  in
  walk fetch.B.node.Node.id;
  !n

let feed_x rng = Tensor.uniform rng [| 2; 4 |] ~lo:(-1.0) ~hi:1.0

let test_pass_calibrated_island () =
  let islands0 = metric "octf_quant_islands_total" in
  let wf0 = metric "octf_quant_weight_bytes_float_total" in
  let wc0 = metric "octf_quant_weight_bytes_code_total" in
  let b, x, out = one_layer_graph () in
  let xv = feed_x (Rng.create 91) in
  let sref =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
  in
  let reference = List.hd (Session.run ~feeds:[ (x, xv) ] sref [ out ]) in
  let ranges = function "act1" -> Some (0.0, 4.0) | _ -> None in
  let b2, x2, out2 = one_layer_graph () in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:[ Graph_optimizer.Quantize ranges; Graph_optimizer.Prune ]
           ())
      (B.graph b2)
  in
  let got = List.hd (Session.run ~feeds:[ (x2, xv) ] sq [ out2 ]) in
  Alcotest.(check bool) "quantized output close" true
    (Tensor.approx_equal ~tol:0.1 reference got);
  Alcotest.(check int) "codes-out island present" 1
    (count_ops sq out2 "QuantizedMatMulQ");
  Alcotest.(check int) "relu absorbed" 0 (count_ops sq out2 "Relu");
  Alcotest.(check bool) "island metric bumped" true
    (metric "octf_quant_islands_total" >= islands0 +. 1.0);
  (* 4x weight memory cut, measured on this pass's weights alone *)
  let df = metric "octf_quant_weight_bytes_float_total" -. wf0 in
  let dc = metric "octf_quant_weight_bytes_code_total" -. wc0 in
  Alcotest.(check (float 1e-9)) "weight bytes ratio" 4.0 (df /. dc)

let test_pass_dynamic_island () =
  let islands0 = metric "octf_quant_islands_total" in
  let b, x, out = one_layer_graph () in
  let xv = feed_x (Rng.create 92) in
  let sref =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
  in
  let reference = List.hd (Session.run ~feeds:[ (x, xv) ] sref [ out ]) in
  let b2, x2, out2 = one_layer_graph () in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:
             [ Graph_optimizer.Quantize (fun _ -> None); Graph_optimizer.Prune ]
           ())
      (B.graph b2)
  in
  let got = List.hd (Session.run ~feeds:[ (x2, xv) ] sq [ out2 ]) in
  Alcotest.(check bool) "dynamic quantized output close" true
    (Tensor.approx_equal ~tol:0.1 reference got);
  (* no output range: the island is the root alone, float-out *)
  Alcotest.(check int) "float-out island" 1 (count_ops sq out2 "QuantizedMatMul");
  Alcotest.(check int) "bias/relu stay float" 1 (count_ops sq out2 "Relu");
  Alcotest.(check bool) "island metric bumped" true
    (metric "octf_quant_islands_total" >= islands0 +. 1.0)

(* Two calibrated layers back to back: the Dequantize -> Quantize pair
   between them must be elided so the islands exchange codes. *)
let two_layer_graph () =
  let b = B.create () in
  let rngw = Rng.create 82 in
  let x = B.placeholder b ~shape:[| 2; 4 |] Dtype.F32 in
  let w1 = B.const b (Tensor.uniform rngw [| 4; 5 |] ~lo:(-1.0) ~hi:1.0) in
  let b1 = B.const b (Tensor.of_float_array [| 5 |] [| 0.1; 0.2; -0.1; 0.0; 0.3 |]) in
  let act1 = B.relu b ~name:"layer1" (B.add b (B.matmul b x w1) b1) in
  let w2 = B.const b (Tensor.uniform rngw [| 5; 3 |] ~lo:(-1.0) ~hi:1.0) in
  let b2 = B.const b (Tensor.of_float_array [| 3 |] [| 0.0; 0.1; -0.2 |]) in
  let act2 = B.relu b ~name:"layer2" (B.add b (B.matmul b act1 w2) b2) in
  let out = B.identity b act2 in
  (b, x, out)

let test_pass_elides_between_islands () =
  let elisions0 = metric "octf_quant_elisions_total" in
  let b, x, out = two_layer_graph () in
  let xv = feed_x (Rng.create 93) in
  let sref =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
  in
  let reference = List.hd (Session.run ~feeds:[ (x, xv) ] sref [ out ]) in
  let ranges = function
    | "layer1" -> Some (0.0, 4.0)
    | "layer2" -> Some (0.0, 8.0)
    | _ -> None
  in
  let b2, x2, out2 = two_layer_graph () in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:[ Graph_optimizer.Quantize ranges; Graph_optimizer.Prune ]
           ())
      (B.graph b2)
  in
  let got = List.hd (Session.run ~feeds:[ (x2, xv) ] sq [ out2 ]) in
  Alcotest.(check bool) "two-layer quantized output close" true
    (Tensor.approx_equal ~tol:0.2 reference got);
  Alcotest.(check int) "both islands rewritten" 2
    (count_ops sq out2 "QuantizedMatMulQ");
  (* layer2's input Quantize was elided: only layer1's input quantizes *)
  Alcotest.(check int) "one live input quantize" 1
    (count_ops sq out2 "Quantize" + count_ops sq out2 "QuantizeRange");
  Alcotest.(check bool) "elision metric bumped" true
    (metric "octf_quant_elisions_total" >= elisions0 +. 1.0)

let test_pass_inert_on_variables () =
  (* Weights behind Read (a training graph): nothing is eligible, and
     the output is bit-identical to the unoptimized run. *)
  let build () =
    let b = B.create () in
    let v =
      B.variable b ~name:"w" ~dtype:Dtype.F32 ~shape:[| 4; 3 |] ()
    in
    let init = B.assign b v (B.const b (Tensor.ones Dtype.F32 [| 4; 3 |])) in
    let x = B.placeholder b ~shape:[| 2; 4 |] Dtype.F32 in
    let out = B.identity b (B.relu b (B.matmul b x (B.read b v))) in
    (b, init, x, out)
  in
  let xv = feed_x (Rng.create 94) in
  let b, init, x, out = build () in
  let sref =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
  in
  Session.run_unit sref [ init ];
  let reference = List.hd (Session.run ~feeds:[ (x, xv) ] sref [ out ]) in
  let b2, init2, x2, out2 = build () in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:
             [ Graph_optimizer.Quantize (fun _ -> None); Graph_optimizer.Prune ]
           ())
      (B.graph b2)
  in
  Session.run_unit sq [ init2 ];
  let got = List.hd (Session.run ~feeds:[ (x2, xv) ] sq [ out2 ]) in
  Alcotest.(check bool) "bit-identical" true (Tensor.equal reference got);
  Alcotest.(check int) "no islands" 0
    (count_ops sq out2 "QuantizedMatMul" + count_ops sq out2 "QuantizedMatMulQ")

let test_pass_skips_fetched_root () =
  (* Fetching the matmul itself pins it: logits stay float. *)
  let b = B.create () in
  let x = B.placeholder b ~shape:[| 2; 4 |] Dtype.F32 in
  let w = B.const b (Tensor.ones Dtype.F32 [| 4; 3 |]) in
  let out = B.matmul b x w in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:
             [ Graph_optimizer.Quantize (fun _ -> None); Graph_optimizer.Prune ]
           ())
      (B.graph b)
  in
  let xv = feed_x (Rng.create 95) in
  let got = List.hd (Session.run ~feeds:[ (x, xv) ] sq [ out ]) in
  Alcotest.(check int) "not rewritten" 0
    (count_ops sq out "QuantizedMatMul" + count_ops sq out "QuantizedMatMulQ");
  (* exact float matmul of ones-weights: row sums of x *)
  for i = 0 to 1 do
    let want = ref 0.0 in
    for j = 0 to 3 do
      want := !want +. Tensor.flat_get_f xv ((i * 4) + j)
    done;
    for j = 0 to 2 do
      Alcotest.(check (float 1e-5)) "exact" !want
        (Tensor.flat_get_f got ((i * 3) + j))
    done
  done

let test_pass_quantizes_conv () =
  let b = B.create () in
  let rngw = Rng.create 83 in
  let x = B.placeholder b ~shape:[| 1; 6; 6; 2 |] Dtype.F32 in
  let f = B.const b (Tensor.uniform rngw [| 3; 3; 2; 4 |] ~lo:(-1.0) ~hi:1.0) in
  let conv = B.conv2d b ~name:"c1" ~strides:(1, 1) ~padding:`Same x f in
  let out = B.identity b (B.relu b ~name:"act" conv) in
  let xv = Tensor.uniform (Rng.create 96) [| 1; 6; 6; 2 |] ~lo:(-1.0) ~hi:1.0 in
  let sref =
    Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b)
  in
  let reference = List.hd (Session.run ~feeds:[ (x, xv) ] sref [ out ]) in
  let sq =
    Session.create
      ~config:
        (Session.Config.v
           ~passes:
             [ Graph_optimizer.Quantize (fun _ -> None); Graph_optimizer.Prune ]
           ())
      (B.graph b)
  in
  let got = List.hd (Session.run ~feeds:[ (x, xv) ] sq [ out ]) in
  Alcotest.(check int) "conv island" 1 (count_ops sq out "QuantizedConv2D");
  Alcotest.(check bool) "conv output close" true
    (Tensor.approx_equal ~tol:0.2 reference got)

let suite =
  [
    Alcotest.test_case "roundtrip error bound" `Quick test_roundtrip_error_bound;
    Alcotest.test_case "codes in range" `Quick test_codes_in_range;
    Alcotest.test_case "quantized matmul" `Quick test_quantized_matmul_close;
    Alcotest.test_case "constant tensor" `Quick test_quantize_constant_tensor;
    QCheck_alcotest.to_alcotest prop_roundtrip_one_step;
    QCheck_alcotest.to_alcotest prop_roundtrip_negative_only;
    QCheck_alcotest.to_alcotest prop_roundtrip_constant;
    QCheck_alcotest.to_alcotest prop_range_invariants;
    QCheck_alcotest.to_alcotest prop_codes_in_range;
    Alcotest.test_case "empty tensor" `Quick test_empty_tensor;
    Alcotest.test_case "calibrated range clamps" `Quick
      test_quantize_with_range_clamps;
    Alcotest.test_case "shape mismatch is structured" `Quick
      test_matmul_shape_mismatch_structured;
    Alcotest.test_case "degenerate range is structured" `Quick
      test_degenerate_range_structured;
    Alcotest.test_case "quantized conv2d" `Quick test_quantized_conv2d_close;
    Alcotest.test_case "batched quantized matmul" `Quick
      test_batched_quantized_matmul;
    Alcotest.test_case "bias+relu epilogue" `Quick test_epilogue_bias_relu;
    Alcotest.test_case "codes-out requantization" `Quick
      test_matmul_q_codes_out;
    Alcotest.test_case "calibration min/max" `Quick test_calibration_min_max;
    Alcotest.test_case "calibration sanitizes ranges" `Quick
      test_calibration_sanitizes;
    Alcotest.test_case "calibration EMA" `Quick test_calibration_ema;
    Alcotest.test_case "pass: calibrated island" `Quick
      test_pass_calibrated_island;
    Alcotest.test_case "pass: dynamic island" `Quick test_pass_dynamic_island;
    Alcotest.test_case "pass: elision between islands" `Quick
      test_pass_elides_between_islands;
    Alcotest.test_case "pass: inert on variables" `Quick
      test_pass_inert_on_variables;
    Alcotest.test_case "pass: fetched root stays float" `Quick
      test_pass_skips_fetched_root;
    Alcotest.test_case "pass: conv island" `Quick test_pass_quantizes_conv;
  ]
