module Json = Ipcp_telemetry.Json
module Telemetry = Ipcp_telemetry.Telemetry

type kind = Gauge | Counter
type schema = { mutable declared : (string * kind) list }

let schema () = { declared = [] }

let declare s kind name =
  if List.mem_assoc name s.declared then
    invalid_arg ("Health: reading declared twice: " ^ name);
  s.declared <- (name, kind) :: s.declared;
  name

let counter s name = declare s Counter name
let gauge s name = declare s Gauge name

(* Built once and never resized, so worker domains may read the table
   concurrently; each cell is its own atomic. *)
type t = (string, kind * int Atomic.t) Hashtbl.t

let table schemas =
  let t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun (name, kind) -> Hashtbl.replace t name (kind, Atomic.make 0))
        s.declared)
    schemas;
  t

let add t name n =
  match Hashtbl.find_opt t name with
  | Some (_, a) -> ignore (Atomic.fetch_and_add a n)
  | None -> invalid_arg ("Health: undeclared reading " ^ name)

let bump t name = add t name 1

let readings t kind =
  Hashtbl.fold
    (fun name (k, a) acc ->
      if k = kind then (name, Atomic.get a) :: acc else acc)
    t []

(* Sum one section of the shard documents by name. *)
let sum section docs =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun doc ->
      match Json.member section doc with
      | Some (Json.Obj fields) ->
        List.iter
          (fun (k, v) ->
            match v with
            | Json.Int i ->
              Hashtbl.replace tbl k
                (Option.value ~default:0 (Hashtbl.find_opt tbl k) + i)
            | _ -> ())
          fields
      | _ -> ())
    docs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let snapshot ?(shards = []) ?out ~gauges ?(counters = []) t =
  let own = gauges @ readings t Gauge in
  (* mirror this process's levels into any ambient profiling sink *)
  List.iter (fun (k, v) -> Telemetry.set_gauge k v) own;
  let doc =
    Telemetry.health_snapshot
      ~gauges:(sum "gauges" shards @ own)
      ~counters:(sum "counters" shards @ counters @ readings t Counter)
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string doc);
          output_char oc '\n'))
    out;
  doc
