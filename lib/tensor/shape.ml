type t = int array

let scalar : t = [||]

let equal (a : t) (b : t) = a = b

let rank (s : t) = Array.length s

(* Loops rather than a fold or iter: every tensor creation runs both,
   and a closure call per dimension shows on small tensors. *)
let numel (s : t) =
  let n = ref 1 in
  for i = 0 to Array.length s - 1 do
    n := !n * s.(i)
  done;
  !n

let validate (s : t) =
  for i = 0 to Array.length s - 1 do
    if s.(i) < 0 then invalid_arg "Shape.validate: negative dimension"
  done

let to_string (s : t) =
  if rank s = 0 then "[]"
  else "[" ^ String.concat "x" (Array.to_list (Array.map string_of_int s)) ^ "]"

let pp fmt s = Format.pp_print_string fmt (to_string s)

let strides (s : t) =
  let n = rank s in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * s.(i + 1)
  done;
  st

let flat_index (s : t) (idx : int array) =
  if Array.length idx <> rank s then
    invalid_arg "Shape.flat_index: rank mismatch";
  let st = strides s in
  let off = ref 0 in
  for i = 0 to rank s - 1 do
    if idx.(i) < 0 || idx.(i) >= s.(i) then
      invalid_arg "Shape.flat_index: index out of bounds";
    off := !off + (idx.(i) * st.(i))
  done;
  !off

let multi_index (s : t) (flat : int) =
  let n = rank s in
  let idx = Array.make n 0 in
  let rem = ref flat in
  let st = strides s in
  for i = 0 to n - 1 do
    idx.(i) <- !rem / st.(i);
    rem := !rem mod st.(i)
  done;
  idx

let broadcast (a : t) (b : t) =
  let ra = rank a and rb = rank b in
  let r = max ra rb in
  let out = Array.make r 0 in
  for i = 0 to r - 1 do
    let da = if i < r - ra then 1 else a.(i - (r - ra)) in
    let db = if i < r - rb then 1 else b.(i - (r - rb)) in
    if da = db then out.(i) <- da
    else if da = 1 then out.(i) <- db
    else if db = 1 then out.(i) <- da
    else
      invalid_arg
        (Printf.sprintf "Shape.broadcast: incompatible %s vs %s" (to_string a)
           (to_string b))
  done;
  out

let broadcastable a b =
  match broadcast a b with _ -> true | exception Invalid_argument _ -> false

let normalize_axis (s : t) axis =
  let r = rank s in
  let a = if axis < 0 then axis + r else axis in
  if a < 0 || a >= r then
    invalid_arg
      (Printf.sprintf "Shape.normalize_axis: axis %d out of range for %s" axis
         (to_string s));
  a

let reduce ?(keep_dims = false) (s : t) axes =
  let r = rank s in
  let axes =
    if axes = [] then List.init r (fun i -> i)
    else List.map (normalize_axis s) axes
  in
  let reduced = Array.make r false in
  List.iter (fun a -> reduced.(a) <- true) axes;
  if keep_dims then
    Array.mapi (fun i d -> if reduced.(i) then 1 else d) s
  else
    Array.of_list
      (List.filteri (fun i _ -> not reduced.(i)) (Array.to_list s))

let concat (shapes : t list) ~axis =
  match shapes with
  | [] -> invalid_arg "Shape.concat: empty list"
  | first :: rest ->
      let axis = normalize_axis first axis in
      let out = Array.copy first in
      List.iter
        (fun s ->
          if rank s <> rank first then
            invalid_arg "Shape.concat: rank mismatch";
          Array.iteri
            (fun i d ->
              if i = axis then out.(i) <- out.(i) + d
              else if d <> first.(i) then
                invalid_arg "Shape.concat: dimension mismatch")
            s)
        rest;
      out

let squeeze (s : t) =
  Array.of_list (List.filter (fun d -> d <> 1) (Array.to_list s))
