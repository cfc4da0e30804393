(** The program call graph.

    Nodes are procedures; each edge carries its call site (a [call]
    statement or a function call inside an expression).  The graph is a
    multigraph — two calls from [p] to [q] are two edges, each with its own
    jump functions.  Tarjan's algorithm provides the strongly-connected
    components in reverse topological order, which is the bottom-up order
    used to build return jump functions and the MOD/REF fixpoint
    (FORTRAN 77 has no recursion, but MiniFort allows it, and every consumer
    of this module treats members of a non-trivial SCC conservatively). *)

open Ipcp_frontend

type edge = {
  e_caller : string;
  e_callee : string;
  e_site : Prog.call_site;
}

type t = {
  prog : Prog.t;
  nodes : string list;  (** in program order *)
  edges : edge list;
  out_edges : (string, edge list) Hashtbl.t;
  in_edges : (string, edge list) Hashtbl.t;
  sccs : string list list;  (** reverse topological: callees before callers *)
  cyclic : (string, unit) Hashtbl.t;
      (** members of a recursive cycle: a self-loop or a larger SCC *)
}

let build (prog : Prog.t) : t =
  let nodes = List.map (fun (p : Prog.proc) -> p.pname) prog.procs in
  let edges =
    List.concat_map
      (fun (p : Prog.proc) ->
        List.map
          (fun (cs : Prog.call_site) ->
            { e_caller = p.pname; e_callee = cs.cs_callee; e_site = cs })
          (Prog.call_sites p))
      prog.procs
  in
  let out_edges = Hashtbl.create 16 and in_edges = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Hashtbl.replace out_edges n [];
      Hashtbl.replace in_edges n [])
    nodes;
  List.iter
    (fun e ->
      Hashtbl.replace out_edges e.e_caller (e :: Hashtbl.find out_edges e.e_caller);
      Hashtbl.replace in_edges e.e_callee (e :: Hashtbl.find in_edges e.e_callee))
    edges;
  (* Tarjan SCC; result naturally comes out in reverse topological order. *)
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun e ->
        let w = e.e_callee in
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (Hashtbl.find out_edges v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  let cyclic = Hashtbl.create 16 in
  List.iter
    (function
      | [ single ] ->
        let self_loop e = e.e_callee = single in
        if List.exists self_loop (Hashtbl.find out_edges single) then
          Hashtbl.replace cyclic single ()
      | many -> List.iter (fun n -> Hashtbl.replace cyclic n ()) many)
    !sccs;
  (* !sccs currently has later-finished (callers) first; reverse for
     bottom-up order. *)
  { prog; nodes; edges; out_edges; in_edges; sccs = List.rev !sccs; cyclic }

let callees_of t name = Hashtbl.find_opt t.out_edges name |> Option.value ~default:[]

let callers_of t name = Hashtbl.find_opt t.in_edges name |> Option.value ~default:[]

(** Bottom-up order over procedures (callees before callers; members of a
    cycle in arbitrary relative order). *)
let bottom_up t = List.concat t.sccs

(** Top-down order (callers before callees). *)
let top_down t = List.rev (bottom_up t)

(** Is [name] part of a recursive cycle (self-loop or larger SCC)? *)
let in_cycle t name = Hashtbl.mem t.cyclic name

(** Procedures reachable from the main program. *)
let reachable_from_main t =
  let seen = Hashtbl.create 16 in
  let rec go n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      List.iter (fun e -> go e.e_callee) (callees_of t n)
    end
  in
  go t.prog.main;
  List.filter (Hashtbl.mem seen) t.nodes

let pp ppf t =
  List.iter
    (fun n ->
      Fmt.pf ppf "%s -> %a@." n
        (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
        (List.map (fun e -> e.e_callee) (callees_of t n)))
    t.nodes
