(* Tensor arrays (§3.4): accumulate per-iteration values in a loop, then
   stack after exit — the mechanism behind dynamic RNN outputs. *)

open Octf_tensor
open Octf
module B = Builder

let test_write_read_stack () =
  let b = B.create () in
  let ta = B.tensor_array b () in
  let w0 = B.tensor_array_write b ta (B.const_i b 0) (B.const_f b 10.0) in
  let w1 = B.tensor_array_write b ta (B.const_i b 1) (B.const_f b 20.0) in
  let stacked =
    B.with_control_dependencies b [ w0; w1 ] (fun () ->
        B.tensor_array_stack b ta)
  in
  let size =
    B.with_control_dependencies b [ w0; w1 ] (fun () ->
        B.tensor_array_size b ta)
  in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  match Session.run s [ stacked; size ] with
  | [ st; sz ] ->
      Alcotest.(check (array int)) "stacked shape" [| 2 |] (Tensor.shape st);
      Alcotest.(check (float 0.)) "element" 20.0 (Tensor.get_f st [| 1 |]);
      Alcotest.(check int) "size" 2 (Tensor.flat_get_i sz 0)
  | _ -> Alcotest.fail "arity"

let test_loop_accumulation () =
  (* Write i^2 at index i for i in 0..4 inside a while loop, stack after
     exit: [0; 1; 4; 9; 16]. *)
  let b = B.create () in
  let ta = B.tensor_array b () in
  let i0 = B.const_f b 0.0 in
  let limit = B.const_f b 4.5 in
  let results =
    B.while_loop b ~invariants:[ limit; ta ]
      ~cond:(fun b vars ->
        match vars with
        | [ i; lim; _ta ] -> B.less b i lim
        | _ -> assert false)
      ~body:(fun b vars ->
        match vars with
        | [ i; _lim; ta ] ->
            let write =
              B.tensor_array_write b ta (B.cast b i Dtype.I32) (B.square b i)
            in
            (* Order the loop-carried increment after the write. *)
            [ B.with_control_dependencies b [ write ] (fun () ->
                  B.add b i (B.ones_like b i)) ]
        | _ -> assert false)
      [ i0 ]
  in
  let final_i = List.hd results in
  let stacked =
    B.with_control_dependencies b [ final_i ] (fun () ->
        B.tensor_array_stack b ta)
  in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  match Session.run s [ stacked ] with
  | [ st ] ->
      Alcotest.(check bool) "squares" true
        (Tensor.approx_equal st
           (Tensor.of_float_array [| 5 |] [| 0.; 1.; 4.; 9.; 16. |]))
  | _ -> Alcotest.fail "arity"

let test_double_write_rejected () =
  let b = B.create () in
  let ta = B.tensor_array b () in
  let w0 = B.tensor_array_write b ta (B.const_i b 0) (B.const_f b 1.0) in
  let w1 =
    B.with_control_dependencies b [ w0 ] (fun () ->
        B.tensor_array_write b ta (B.const_i b 0) (B.const_f b 2.0))
  in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  match Session.run s [ w1 ] with
  | _ -> Alcotest.fail "expected double-write error"
  | exception Session.Run_error _ -> ()

let test_read_unwritten_rejected () =
  let b = B.create () in
  let ta = B.tensor_array b () in
  let r = B.tensor_array_read b ta (B.const_i b 3) in
  let s = Session.create ~config:(Session.Config.v ~passes:[] ()) (B.graph b) in
  match Session.run s [ r ] with
  | _ -> Alcotest.fail "expected unwritten-read error"
  | exception Session.Run_error _ -> ()

let suite =
  [
    Alcotest.test_case "write/read/stack" `Quick test_write_read_stack;
    Alcotest.test_case "loop accumulation" `Quick test_loop_accumulation;
    Alcotest.test_case "double write" `Quick test_double_write_rejected;
    Alcotest.test_case "read unwritten" `Quick test_read_unwritten_rejected;
  ]
