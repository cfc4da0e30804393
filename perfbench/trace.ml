(* Spans recorded by the benchmark around its calls into the analyzer's
   public functions.  Spans stay in memory until the run ends.  Off by
   default, so untimed and untraced code pays one atomic read per call.

   Spans opened on a pool domain have no parent on that domain's stack;
   they hang under the op's root span, so a layer's self time covers
   every domain that worked for the op. *)

type span = {
  id : int;
  parent : int;  (** 0 for an op root *)
  op : int;
  name : string;
  t0 : int64;
  t1 : int64;
}

let on = Atomic.make false
let next_id = Atomic.make 1
let cur_op = Atomic.make 0
let cur_root = Atomic.make 0
let mu = Mutex.create ()
let spans : span list ref = ref []
let stack : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let record s = Mutex.protect mu (fun () -> spans := s :: !spans)

let span name f =
  if not (Atomic.get on) then f ()
  else begin
    let st = Domain.DLS.get stack in
    let parent = match !st with p :: _ -> p | [] -> Atomic.get cur_root in
    let id = Atomic.fetch_and_add next_id 1 in
    st := id :: !st;
    let t0 = Util.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Util.now_ns () in
        st := List.tl !st;
        record { id; parent; op = Atomic.get cur_op; name; t0; t1 })
      f
  end

(* Run one op under a root span named ["op"]; every span it opens on any
   domain carries its op id. *)
let op f =
  let id = Atomic.fetch_and_add next_id 1 in
  Atomic.set cur_op id;
  Atomic.set cur_root id;
  Atomic.set on true;
  let st = Domain.DLS.get stack in
  st := [ id ];
  let t0 = Util.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Util.now_ns () in
      Atomic.set on false;
      st := [];
      Atomic.set cur_root 0;
      record { id; parent = 0; op = id; name = "op"; t0; t1 })
    f

(* Attribution calls run outside any op (op id 0). *)
let outside f =
  Atomic.set cur_op 0;
  Atomic.set cur_root 0;
  Atomic.set on true;
  Fun.protect ~finally:(fun () -> Atomic.set on false) f

(* Work counts of traced ops, summed by name. *)
let counters : (string, int) Hashtbl.t = Hashtbl.create 16

let count name n =
  if Atomic.get on && Atomic.get cur_op <> 0 then
    Mutex.protect mu (fun () ->
        Hashtbl.replace counters name
          (n + Option.value ~default:0 (Hashtbl.find_opt counters name)))

let ms s = Util.ms_between s.t0 s.t1

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        let a = max a reach in
        if Int64.compare a b < 0 then (Int64.add total (Int64.sub b a), b)
        else (total, reach))
      (0L, lo) clipped
  in
  Int64.to_float total /. 1e6

(* Per span: its duration minus the part of its interval that its
   children cover (children on parallel domains may overlap). *)
let self_ms all =
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add kids s.parent (s.t0, s.t1)) all;
  List.map (fun s -> (s, ms s -. covered s.t0 s.t1 (Hashtbl.find_all kids s.id))) all

type summary = {
  ops : int;  (** traced ops *)
  op_ms : float list;  (** root-span durations *)
  per_op_ms : string -> float;  (** mean per op of a span name's total time *)
  per_call_ms : string -> float;  (** mean duration of one span of a name *)
  self_share : (string * float) list;
      (** span name -> share of all self time inside ops *)
  self_ms_per_op : float;  (** the base of [self_share] *)
  outside_ms : string -> float list;  (** durations of attribution spans *)
  per_op_count : string -> float;  (** mean per op of a work count *)
}

let summarize () =
  let all = !spans in
  let in_ops = List.filter (fun s -> s.op <> 0) all in
  let roots = List.filter (fun s -> s.parent = 0) in_ops in
  let ops = List.length roots in
  let by_name name = List.filter (fun s -> s.name = name) in_ops in
  let selfs = self_ms in_ops in
  let total_self = Util.fsum (List.map snd selfs) in
  let shares = Hashtbl.create 16 in
  List.iter
    (fun (s, v) ->
      let cur = Option.value ~default:0. (Hashtbl.find_opt shares s.name) in
      Hashtbl.replace shares s.name (cur +. v))
    selfs;
  {
    ops;
    op_ms = List.map ms roots;
    per_op_ms =
      (fun name ->
        Util.ratio (Util.fsum (List.map ms (by_name name))) (float_of_int ops));
    per_call_ms = (fun name -> Util.mean (List.map ms (by_name name)));
    self_ms_per_op = Util.ratio total_self (float_of_int ops);
    self_share =
      Hashtbl.fold (fun k v acc -> (k, Util.ratio v total_self) :: acc) shares []
      |> List.sort compare;
    outside_ms =
      (fun name ->
        List.filter_map
          (fun s -> if s.op = 0 && s.name = name then Some (ms s) else None)
          all);
    per_op_count =
      (fun name ->
        Util.ratio
          (float_of_int (Option.value ~default:0 (Hashtbl.find_opt counters name)))
          (float_of_int ops));
  }
