(* Child processes of the two-process workload: the benchmark binary
   re-executes itself as the ps task. Every child is reaped on every
   exit path — by [reap], or by the at_exit hook if the run ends early
   — and every wait on it is bounded by a timeout. *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> failwith "free_port: not an inet socket")

type child = {
  pid : int;
  to_child : Unix.file_descr;  (** the child's stdin; closing it stops it *)
  from_child : Unix.file_descr;  (** the child's stdout *)
  mutable reaped : bool;
}

let live = ref []

let kill_and_wait c =
  if not c.reaped then begin
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
    c.reaped <- true
  end

let () = at_exit (fun () -> List.iter kill_and_wait !live)

(* Read from [fd] until [stop buf] holds, end of file, or [deadline]. *)
let read_until fd ~deadline ~stop =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    if stop buf then true
    else
      let left = deadline -. Stats.now () in
      if left <= 0.0 then false
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> go ()
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> stop buf
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let ok = go () in
  (ok, Buffer.contents buf)

(* Start [argv] with piped stdin/stdout and wait until it prints its
   first line (the child's "ready") within [timeout] seconds. *)
let spawn argv ~timeout =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let c = { pid; to_child = in_w; from_child = out_r; reaped = false } in
  live := c :: !live;
  let ok, _ =
    read_until out_r
      ~deadline:(Stats.now () +. timeout)
      ~stop:(fun b -> String.contains (Buffer.contents b) '\n')
  in
  if not ok then begin
    kill_and_wait c;
    failwith "child process did not become ready"
  end;
  c

(* Close the child's stdin, collect everything it prints until it
   exits, and reap it; past [timeout] seconds it is killed. *)
let reap c ~timeout =
  let deadline = Stats.now () +. timeout in
  (try Unix.close c.to_child with Unix.Unix_error _ -> ());
  let _, report = read_until c.from_child ~deadline ~stop:(fun _ -> false) in
  Unix.close c.from_child;
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when Stats.now () < deadline ->
        Thread.delay 0.005;
        wait ()
    | 0, _ -> kill_and_wait c
    | _ -> c.reaped <- true
    | exception Unix.Unix_error _ -> c.reaped <- true
  in
  wait ();
  live := List.filter (fun c' -> c' != c) !live;
  report
