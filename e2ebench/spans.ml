(* Spans recorded by the benchmark around each call into a layer: name,
   start, end, the span that caused it and the request or step it
   belongs to. They are kept in memory while tracing is on and written
   once, at exit, as a Chrome trace. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;  (** step or request index; -1 outside one *)
  name : string;
  cat : string;
  tid : int;
  start : float;
  stop : float;
}

let enabled = ref false
let cap = 200_000
let lock = Mutex.create ()
let kept = ref []
let count = ref 0
let dropped = ref 0
let next = Atomic.make 0
let fresh () = Atomic.fetch_and_add next 1

let add s =
  Mutex.lock lock;
  if !count < cap then begin
    kept := s :: !kept;
    incr count
  end
  else incr dropped;
  Mutex.unlock lock

let record ?(parent = -1) ?(req = -1) ?id name start stop =
  if !enabled then
    add
      {
        id = (match id with Some i -> i | None -> fresh ());
        parent;
        req;
        name;
        cat = "bench";
        tid = Thread.id (Thread.self ());
        start;
        stop;
      }

(* Time [f], passing it the new span's id so that spans it causes can
   name it as their parent. Records nothing while tracing is off. *)
let span ?parent ?req name f =
  let id = if !enabled then fresh () else -1 in
  let start = Stats.now () in
  let r = f id in
  record ?parent ?req ~id name start (Stats.now ());
  r

(* Attach one step's kernel events as children of [parent]. *)
let kernels ~parent ~req (st : Octf.Step_stats.t) =
  List.iter
    (fun (n : Octf.Step_stats.node_stats) ->
      if !enabled then
        add
          {
            id = fresh ();
            parent;
            req;
            name = n.node;
            cat = n.op_type;
            tid = 1000 + n.lane;
            start = n.start;
            stop = n.start +. n.duration;
          })
    st.nodes

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Write every kept span as a Chrome trace ("X" events, microseconds
   from the first span). *)
let write path =
  let spans = List.rev !kept in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\
         \"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        (json_string s.name) (json_string s.cat) s.tid
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent s.req)
    spans;
  Printf.fprintf oc "\n],\"otherData\":{\"dropped_spans\":%d}}\n" !dropped;
  close_out oc
