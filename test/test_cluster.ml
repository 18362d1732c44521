open Octf_tensor
open Octf
module B = Builder

let scalar t = Tensor.flat_get_f t 0

let cluster () =
  Cluster.create
    ~jobs:[ ("ps", 2, [ Device.CPU ]); ("worker", 2, [ Device.CPU ]) ]

let test_devices_and_names () =
  let c = cluster () in
  Alcotest.(check int) "four devices" 4 (List.length (Cluster.devices c));
  Alcotest.(check (list string)) "task names"
    [ "/job:ps/task:0"; "/job:ps/task:1"; "/job:worker/task:0";
      "/job:worker/task:1" ]
    (Cluster.task_names c)

let test_per_task_resources () =
  let c = cluster () in
  let d0 = Device.make ~job:"ps" ~task:0 Device.CPU in
  let d1 = Device.make ~job:"ps" ~task:1 Device.CPU in
  Alcotest.(check bool) "distinct managers" true
    (Cluster.resources_of c d0 != Cluster.resources_of c d1);
  Alcotest.(check bool) "stable" true
    (Cluster.resources_of c d0 == Cluster.resources_of c d0);
  match Cluster.resources_of c (Device.make ~job:"nowhere" Device.CPU) with
  | _ -> Alcotest.fail "expected a missing-task error"
  | exception Step_failure.Error f -> (
      match f.Step_failure.cause with
      | Step_failure.Missing_task msg ->
          let contains needle =
            let nh = String.length msg and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub msg i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "names the missing task" true
            (contains "/job:nowhere/task:0");
          Alcotest.(check bool) "lists known tasks" true
            (contains "/job:ps/task:0")
      | c ->
          Alcotest.failf "expected Missing_task, got %s"
            (Step_failure.cause_message c))

let test_variable_lives_on_its_task () =
  let c = cluster () in
  let b = B.create () in
  let v =
    B.variable b ~name:"w" ~device:"/job:ps/task:1" ~dtype:Dtype.F32
      ~shape:[||] ()
  in
  let init = B.assign b v (B.const_f b 7.0) in
  let s = Cluster.session c (B.graph b) in
  Session.run_unit s [ init ];
  (* The resource must exist in ps/1's manager and nowhere else. *)
  let res1 = Cluster.task_resources c ~job:"ps" ~task:1 in
  let res0 = Cluster.task_resources c ~job:"ps" ~task:0 in
  Alcotest.(check bool) "on ps/1" true (Resource_manager.find res1 "w" <> None);
  Alcotest.(check bool) "not on ps/0" true
    (Resource_manager.find res0 "w" = None);
  (* The cluster's devices and routing override a config's own. *)
  let stray = Resource_manager.create () in
  let b2 = B.create () in
  let v2 =
    B.variable b2 ~name:"w2" ~device:"/job:ps/task:1" ~dtype:Dtype.F32
      ~shape:[||] ()
  in
  let init2 = B.assign b2 v2 (B.const_f b2 1.0) in
  let config =
    Session.Config.v
      ~devices:[ Device.make ~job:"localhost" Device.CPU ]
      ~resource_router:(fun _ -> stray)
      ()
  in
  Session.run_unit (Cluster.session ~config c (B.graph b2)) [ init2 ];
  Alcotest.(check bool) "config devices overridden" true
    (Resource_manager.find res1 "w2" <> None);
  Alcotest.(check bool) "config router overridden" true
    (Resource_manager.find stray "w2" = None)

let test_cross_task_training_step () =
  (* Gradient descent where the parameter, the data source and the loss
     live on three different tasks. *)
  let c = cluster () in
  let b = B.create () in
  let w =
    B.variable b ~name:"w" ~device:"/job:ps/task:0" ~dtype:Dtype.F32
      ~shape:[||] ()
  in
  let init = B.assign b w (B.const_f b 0.0) in
  let r = B.read b w in
  let grad =
    B.with_device b "/job:worker/task:0" (fun () ->
        B.mul b (B.sub b r (B.const_f b 4.0)) (B.const_f b 2.0))
  in
  let update =
    B.assign_sub b w (B.mul b grad (B.const_f b 0.25))
  in
  let s = Cluster.session c (B.graph b) in
  Session.run_unit s [ init ];
  for _ = 1 to 20 do
    Session.run_unit s [ update ]
  done;
  Alcotest.(check (float 1e-3)) "converged across tasks" 4.0
    (scalar (List.hd (Session.run s [ r ])))

let test_multi_variable_multi_ps () =
  let c = cluster () in
  let b = B.create () in
  let w0 =
    B.variable b ~name:"w0" ~device:"/job:ps/task:0" ~dtype:Dtype.F32
      ~shape:[||] ()
  in
  let w1 =
    B.variable b ~name:"w1" ~device:"/job:ps/task:1" ~dtype:Dtype.F32
      ~shape:[||] ()
  in
  let init =
    B.group b
      [ B.assign b w0 (B.const_f b 2.0); B.assign b w1 (B.const_f b 3.0) ]
  in
  let total = B.add b (B.read b w0) (B.read b w1) in
  let s = Cluster.session c (B.graph b) in
  Session.run_unit s [ init ];
  Alcotest.(check (float 0.)) "sharded sum" 5.0
    (scalar (List.hd (Session.run s [ total ])))

let suite =
  [
    Alcotest.test_case "devices and names" `Quick test_devices_and_names;
    Alcotest.test_case "per task resources" `Quick test_per_task_resources;
    Alcotest.test_case "variable on its task" `Quick
      test_variable_lives_on_its_task;
    Alcotest.test_case "cross-task training" `Quick
      test_cross_task_training_step;
    Alcotest.test_case "multi-variable multi-ps" `Quick
      test_multi_variable_multi_ps;
  ]
