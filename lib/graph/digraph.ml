type adj = { mutable out : (int * float) list; mutable into : (int * float) list }

type t = { n : int; adj : adj array; mutable m : int }

type edge = { src : int; dst : int; weight : float }

let create n =
  assert (n >= 0);
  { n; adj = Array.init (max n 1) (fun _ -> { out = []; into = [] }); m = 0 }

let vertex_count t = t.n
let edge_count t = t.m

let check_vertex t v =
  if v < 0 || v >= t.n then invalid_arg "Digraph: vertex out of range"

(* The out-list walks compare vertices as ints: [List.mem_assoc] and
   [List.assoc] compare keys polymorphically, a runtime call per arc. *)
let rec mem_out (v : int) = function
  | [] -> false
  | (w, _) :: rest -> w = v || mem_out v rest

let rec weight_out (v : int) = function
  | [] -> raise Not_found
  | (w, x) :: rest -> if w = v then x else weight_out v rest

let mem_edge t u v =
  check_vertex t u;
  check_vertex t v;
  mem_out v t.adj.(u).out

let add_edge ?(weight = 1.0) t u v =
  check_vertex t u;
  check_vertex t v;
  if u = v then invalid_arg "Digraph.add_edge: self-loop";
  if not (mem_edge t u v) then begin
    t.adj.(u).out <- (v, weight) :: t.adj.(u).out;
    t.adj.(v).into <- (u, weight) :: t.adj.(v).into;
    t.m <- t.m + 1
  end

let add_undirected ?weight t u v =
  add_edge ?weight t u v;
  add_edge ?weight t v u

let weight t u v =
  check_vertex t u;
  check_vertex t v;
  weight_out v t.adj.(u).out

let succ t v =
  check_vertex t v;
  List.rev_map fst t.adj.(v).out

let pred t v =
  check_vertex t v;
  List.rev_map fst t.adj.(v).into

let out_degree t v =
  check_vertex t v;
  List.length t.adj.(v).out

let in_degree t v =
  check_vertex t v;
  List.length t.adj.(v).into

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    List.iter (fun (v, w) -> acc := { src = u; dst = v; weight = w } :: !acc) t.adj.(u).out
  done;
  !acc

let iter_succ t v f =
  check_vertex t v;
  List.iter (fun (u, w) -> f u w) (List.rev t.adj.(v).out)

let copy t =
  let g = create t.n in
  List.iter (fun e -> add_edge ~weight:e.weight g e.src e.dst) (edges t);
  g

let induced t keep =
  let remap = Array.make t.n (-1) in
  Array.iteri (fun i v -> check_vertex t v; remap.(v) <- i) keep;
  let g = create (Array.length keep) in
  Array.iteri
    (fun i v ->
      List.iter
        (fun (u, w) -> if remap.(u) >= 0 then add_edge ~weight:w g i remap.(u))
        t.adj.(v).out)
    keep;
  (g, Array.copy keep)

let is_connected_undirected t =
  if t.n <= 1 then true
  else begin
    let seen = Array.make t.n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let count = ref 1 in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | v :: rest ->
        stack := rest;
        let visit (u, _) =
          if not seen.(u) then begin
            seen.(u) <- true;
            incr count;
            stack := u :: !stack
          end
        in
        List.iter visit t.adj.(v).out;
        List.iter visit t.adj.(v).into
    done;
    !count = t.n
  end

let to_dot ?(name = "g") t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  for v = 0 to t.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  %d;\n" v)
  done;
  List.iter
    (fun e -> Buffer.add_string buf (Printf.sprintf "  %d -> %d;\n" e.src e.dst))
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
