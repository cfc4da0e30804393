module Json = Ipcp_telemetry.Json
module Loop = Transport.Loop

(* ---------------- the consistent-hash ring ---------------- *)

module Ring = struct
  (* Points sorted by hash; a key belongs to the first point clockwise
     of its own hash.  ~50 virtual nodes per slot keep the load spread
     within a few percent of even and, more importantly here, make the
     failover order (next distinct slot clockwise) different for
     different keys, so one shard's death spreads its keys over all
     survivors instead of doubling up a single neighbour. *)
  type t = { points : (string * int) array }

  let vnodes = 50
  let hash s = Digest.to_hex (Digest.string s)

  let make ~slots =
    let points =
      List.concat
        (List.init (max 1 slots) (fun slot ->
             List.init vnodes (fun i ->
                 (hash (Printf.sprintf "vnode:%d:%d" slot i), slot))))
    in
    let arr = Array.of_list points in
    Array.sort compare arr;
    { points = arr }

  (* Index of the first point with hash >= the key's hash (wrapping). *)
  let index t key =
    let h = hash key in
    let n = Array.length t.points in
    let rec bs lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst t.points.(mid) < h then bs (mid + 1) hi else bs lo mid
    in
    let i = bs 0 n in
    if i = n then 0 else i

  let lookup t key = snd t.points.(index t key)

  let order_from t key =
    let n = Array.length t.points in
    let start = index t key in
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    for k = 0 to n - 1 do
      let slot = snd t.points.((start + k) mod n) in
      if not (Hashtbl.mem seen slot) then begin
        Hashtbl.add seen slot ();
        out := slot :: !out
      end
    done;
    List.rev !out
end

(* ---------------- routing keys ---------------- *)

let route_key (req : Request.t) =
  match req.rq_op with
  | Request.Health -> "op:health"
  | Request.Ping -> "op:ping"
  | Request.Tables -> "op:tables"
  | Request.Analyze_delta ->
    (* session affinity: every delta of a session must reach the shard
       holding (or restoring) that session's pinned fixpoint *)
    let analysis =
      match req.rq_analysis with `Const -> "const" | `Copy -> "copy"
    in
    Printf.sprintf "session:%s:%s" analysis req.rq_session
  | Request.Analyze | Request.Certify -> (
    (* program-content affinity: same-program-different-config requests
       co-locate, so they share one shard's prepared-artifact memo *)
    match req.rq_target with
    | None -> "op:tables"
    | Some (Request.Suite s) -> (
      match Ipcp_suite.Registry.find s with
      | Some e ->
        "prog:" ^ Digest.to_hex (Digest.string e.Ipcp_suite.Registry.source)
      | None -> "suite:" ^ s)
    | Some (Request.File p) -> (
      match In_channel.with_open_bin p In_channel.input_all with
      | src -> "prog:" ^ Digest.to_hex (Digest.string src)
      | exception Sys_error _ -> "path:" ^ p))

(* ---------------- configuration ---------------- *)

type config = {
  shards : int;
  binary : string;
  shard_args : string list;
  runtime_dir : string option;
  breaker_threshold : int;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  seed : int;
  connect_timeout_ms : int;
  health_out : string option;
  pids_out : string option;
  route_deadline_ms : int;
      (** per-request deadline at the router: a request whose shard has
          not answered within this window is hedged to the next ring
          slot exactly once (0 disables) *)
  heartbeat_ms : int;
      (** interval between in-band pings to each live shard; any frame
          from the shard counts as the answer (0 disables) *)
  heartbeat_misses : int;
      (** consecutive unanswered pings before a shard is ejected
          (SIGTERM-then-SIGKILL, salvage, seeded-backoff respawn) *)
}

let default_config =
  {
    shards = 2;
    binary = Sys.executable_name;
    shard_args = [];
    runtime_dir = None;
    breaker_threshold = 3;
    backoff_base_ms = 10;
    backoff_cap_ms = 1000;
    seed = 0;
    connect_timeout_ms = 5000;
    health_out = None;
    pids_out = None;
    route_deadline_ms = 0;
    heartbeat_ms = 1000;
    heartbeat_misses = 3;
  }

(* ---------------- router state ---------------- *)

(* One admitted-and-forwarded request awaiting its shard's frame. *)
type pending = {
  p_iid : string;  (** internal wire id ([x<seq>]) *)
  p_orig_id : string;  (** the client's id, restored on the way out *)
  p_line : string;  (** the request line with [p_iid] spliced in *)
  p_ikey : string;  (** breaker key ({!Request.input_key}) *)
  p_rkey : string;  (** ring key ({!route_key}) *)
  mutable p_rerouted : bool;  (** the one failover has been spent *)
  mutable p_slot : int;  (** slot of the most recent forward; -1 = parked *)
  mutable p_due : float;
      (** absolute deadline of the current forward (0.0 = none); expiry
          hedges the request to the next ring slot, once *)
}

(* One in-progress health fan-out, merging as shard answers arrive. *)
type agg = {
  a_sink : [ `Client of string | `File of string ];
  mutable a_await : int;
  mutable a_docs : Json.t list;
}

type slot_state = {
  s_slot : int;
  s_addr : Transport.addr;
  mutable s_up : (Shard.t * Loop.conn) option;
      (** the live process and its connection in the event loop *)
  mutable s_inflight : (string, unit) Hashtbl.t;
      (** iids (pending and health parts) currently on this shard *)
  mutable s_due : float;  (** respawn deadline while down *)
  mutable s_restarts : int;
  mutable s_hb_sent : float;  (** when the last ping left (0.0 = never) *)
  mutable s_hb_seen : float;  (** when any frame last arrived *)
  mutable s_hb_missed : int;  (** consecutive pings with no frame since *)
}

(* Every reading a router reports besides its live gauges, each name
   written once. *)
let schema = Health.schema ()
let counter = Health.counter schema
let rx = counter "router.requests"
let forwarded = counter "router.forwarded"
let completed = counter "router.completed"
let rerouted = counter "router.rerouted"
let lost = counter "router.lost"
let quarantined = counter "router.quarantined"
let invalid = counter "router.invalid"
let drained = counter "router.drained"
let restarts = counter "router.shard_restarts"
let deadline_expired = counter "router.deadline_expired"
let hedged = counter "router.hedged"
let ejections = counter "router.ejections"

(* late answers from a slow shard, discarded by the response ledger
   after the hedge already answered *)
let late_dropped = counter "router.late_dropped"

type rt = {
  cfg : config;
  ring : Ring.t;
  slots : slot_state array;
  dir : string;
  dir_owned : bool;  (** we created it, we remove it *)
  pending : (string, pending) Hashtbl.t;
  waiting : pending Queue.t;  (** admitted, no live shard yet *)
  aggs : (string, agg) Hashtbl.t;
  breaker : Server.Breaker.t;  (** shard crashes per input key *)
  n : Health.t;
  out : Server.Outlet.t;
      (** stdout: one debt per admitted client line, settled by its
          terminal frame *)
  loop : Loop.t;
  mutable seq : int;
  mutable hseq : int;
  mutable pseq : int;  (** ping sequence ([g<pseq>.<slot>] iids) *)
  mutable eof : bool;  (** stdin closed (or stop observed) *)
}

let lost_response (p : pending) =
  Request.response ~id:p.p_orig_id ~code:Jobs.exit_internal
    ~reason:"shard crashed twice while serving this request"
    ~error:
      (Err.worker_lost
         "the shard process serving this request died, and so did the one \
          the request was re-routed to")
    Request.Error_crash

(* ---------------- supervision ---------------- *)

let shards_up rt =
  Array.fold_left
    (fun acc ss -> if Option.is_none ss.s_up then acc else acc + 1)
    0 rt.slots

(* Worst-case staleness across the live fleet: how long ago the least
   recently heard-from shard last produced any frame.  0 with heartbeats
   disabled (the reading would be meaningless noise). *)
let heartbeat_age_ms rt =
  if rt.cfg.heartbeat_ms <= 0 then 0
  else begin
    let now = Unix.gettimeofday () in
    Array.fold_left
      (fun acc ss ->
        match ss.s_up with
        | None -> acc
        | Some _ -> max acc (int_of_float ((now -. ss.s_hb_seen) *. 1000.0)))
      0 rt.slots
  end

let write_pids rt =
  match rt.cfg.pids_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Array.iter
          (fun ss ->
            match ss.s_up with
            | Some (sh, _) ->
              Printf.fprintf oc "%d %d\n" ss.s_slot (Shard.pid sh)
            | None -> ())
          rt.slots)

let finish_agg rt a =
  let doc =
    Health.snapshot ~shards:(List.rev a.a_docs)
      ?out:(match a.a_sink with `File path -> Some path | `Client _ -> None)
      ~gauges:
        [
          ("router.shards", rt.cfg.shards);
          ("router.shards_up", shards_up rt);
          ("router.pending", Hashtbl.length rt.pending);
          ("router.waiting", Queue.length rt.waiting);
          ("router.heartbeat_age_ms", heartbeat_age_ms rt);
        ]
      rt.n
  in
  match a.a_sink with
  | `Client id ->
    Server.Outlet.respond rt.out
      (Request.response ~id ~code:0 ~health:doc Request.Ok_done)
  | `File _ -> ()

(* A health part whose shard died before answering: the merge proceeds
   without that shard's contribution. *)
let agg_drop rt iid =
  match Hashtbl.find_opt rt.aggs iid with
  | None -> ()
  | Some a ->
    Hashtbl.remove rt.aggs iid;
    a.a_await <- a.a_await - 1;
    if a.a_await = 0 then finish_agg rt a

(* Count one more consecutive restart of [ss] and schedule its respawn
   on the in-process worker supervisor's seeded backoff. *)
let schedule_respawn rt ss =
  let cfg = rt.cfg in
  ss.s_restarts <- ss.s_restarts + 1;
  let delay_ms =
    Server.backoff_ms ~base:cfg.backoff_base_ms ~cap:cfg.backoff_cap_ms
      ~seed:cfg.seed ~slot:ss.s_slot ~restart:ss.s_restarts
  in
  ss.s_due <- Unix.gettimeofday () +. (float_of_int delay_ms /. 1000.0)

(* One request line to a shard, through its connection's outbuf: a
   stopped shard that reads nothing buffers the tail instead of blocking
   the loop, so heartbeats still fire and eject it. *)
let send (_, c) line = Loop.send c (line ^ "\n")

(* Forward [p] to the first live slot of [order].  With every shard
   down it parks in [waiting], flushed on the next respawn —
   conservation holds because the router never gives up on an admitted
   request, it only limits *re-routing after a crash* to once.  A
   successful send stamps [p_slot] and re-arms the per-forward deadline:
   the deadline measures time on a shard, not time since admission, so
   a request that waited out a full-fleet outage still gets its window. *)
let rec forward_order rt p order =
  let rec try_slots = function
    | [] ->
      p.p_slot <- -1;
      Queue.add p rt.waiting
    | slot :: rest -> (
      let ss = rt.slots.(slot) in
      match ss.s_up with
      | None -> try_slots rest
      | Some up ->
        if send up p.p_line then begin
          Hashtbl.replace ss.s_inflight p.p_iid ();
          p.p_slot <- slot;
          if rt.cfg.route_deadline_ms > 0 then
            p.p_due <-
              Unix.gettimeofday ()
              +. (float_of_int rt.cfg.route_deadline_ms /. 1000.0);
          Health.bump rt.n forwarded
        end
        else begin
          (* the connection just broke: run the death protocol (which
             re-routes *its* inflight) and keep walking the ring *)
          shard_died ~eject:true rt slot;
          try_slots rest
        end)
  in
  try_slots order

and forward rt p = forward_order rt p (Ring.order_from rt.ring p.p_rkey)

(* The death protocol.  Order matters: salvage buffered frames first (a
   response fully written before the crash resolves normally — no
   double answer), only then charge the remaining inflight requests to
   the crash: each gets its single re-route, or its terminal
   E-WORKER-LOST frame if the re-route is already spent.

   [eject] is the variant for a process that may still be alive: it
   missed its heartbeats (wedged, stopped, or pathologically slow), or
   its outbuf latched dead with the tail cap exceeded.  Instead of
   merely abandoning the connection we SIGTERM it and escalate to
   SIGKILL on a short fuse — a zombie shard holding the socket would
   block its own replacement. *)
and shard_died ?(eject = false) rt slot =
  let ss = rt.slots.(slot) in
  match ss.s_up with
  | None -> ()
  | Some (sh, c) ->
    (* down before the salvage: a salvage read that meets EOF ends the
       connection, and its [on_end] must find nothing left to kill *)
    ss.s_up <- None;
    Loop.drain rt.loop c;
    Loop.remove rt.loop c;
    if eject then Shard.terminate ~patience_ms:500 sh else Shard.abandon sh;
    schedule_respawn rt ss;
    Health.bump rt.n restarts;
    let iids = Hashtbl.fold (fun k () acc -> k :: acc) ss.s_inflight [] in
    Hashtbl.reset ss.s_inflight;
    List.iter
      (fun iid ->
        match Hashtbl.find_opt rt.pending iid with
        | Some p when p.p_slot <> slot ->
          (* a stale ledger entry: the request was hedged away at its
             deadline and its live copy is on another shard — this
             shard's death charges it nothing *)
          ()
        | Some p ->
          Server.Breaker.note rt.breaker p.p_ikey ~crashed:true;
          if p.p_rerouted then begin
            Hashtbl.remove rt.pending iid;
            Health.bump rt.n lost;
            Server.Outlet.respond rt.out (lost_response p)
          end
          else begin
            p.p_rerouted <- true;
            Health.bump rt.n rerouted;
            forward rt p
          end
        | None -> agg_drop rt iid)
      (List.sort compare iids)

(* One response frame arrived from [ss]: restore the client's id and
   relay it byte-identically (same parser, same fixed-key-order
   renderer on both sides of the hop). *)
and resolve rt ss line =
  if String.trim line <> "" then
    match Request.response_of_line line with
    | Error e ->
      prerr_endline
        (Printf.sprintf "ipcp route: shard %d spoke a malformed frame (%s)"
           ss.s_slot e)
    | Ok r -> (
      let iid = r.Request.rs_id in
      Hashtbl.remove ss.s_inflight iid;
      match Hashtbl.find_opt rt.pending iid with
      | Some p ->
        Hashtbl.remove rt.pending iid;
        (* a served input is behaving again: close its breaker *)
        if r.Request.rs_status = Request.Ok_done then
          Server.Breaker.note rt.breaker p.p_ikey ~crashed:false;
        Health.bump rt.n completed;
        Server.Outlet.respond rt.out { r with Request.rs_id = p.p_orig_id }
      | None -> (
        match Hashtbl.find_opt rt.aggs iid with
        | Some a ->
          Hashtbl.remove rt.aggs iid;
          (match r.Request.rs_health with
          | Some doc -> a.a_docs <- doc :: a.a_docs
          | None -> ());
          a.a_await <- a.a_await - 1;
          if a.a_await = 0 then finish_agg rt a
        | None ->
          (* the response ledger's discard point.  A request iid ([x*])
             with no pending entry is a late answer from a shard whose
             request was already resolved — the hedge answered first —
             and is dropped here, never double-delivered.  Ping pongs
             ([g*]) land here by design and count as nothing; any frame
             already refreshed [s_hb_seen]. *)
          if String.length iid > 0 && iid.[0] = 'x' then
            Health.bump rt.n late_dropped))

let flush_waiting rt =
  let parked = Queue.length rt.waiting in
  for _ = 1 to parked do
    forward rt (Queue.pop rt.waiting)
  done

(* A live shard's connection: its frames resolve pending requests (and
   prove it alive), its end runs the death protocol. *)
let shard_conn rt ss sh =
  let fd = Shard.fd sh in
  Loop.add rt.loop ~out:(Transport.Outbuf.create fd)
    ~on_gone:(fun () -> shard_died ~eject:true rt ss.s_slot)
    ~on_line:(fun line ->
      ss.s_hb_seen <- Unix.gettimeofday ();
      resolve rt ss line)
    ~on_end:(fun _ -> shard_died rt ss.s_slot)
    fd

let respawn_due rt =
  Array.iter
    (fun ss ->
      if Option.is_none ss.s_up && Unix.gettimeofday () >= ss.s_due then begin
        match
          Shard.start ~binary:rt.cfg.binary ~addr:ss.s_addr
            ~args:rt.cfg.shard_args
            ~connect_timeout_ms:rt.cfg.connect_timeout_ms
        with
        | sh ->
          ss.s_up <- Some (sh, shard_conn rt ss sh);
          ss.s_hb_sent <- 0.0;
          ss.s_hb_seen <- Unix.gettimeofday ();
          ss.s_hb_missed <- 0;
          write_pids rt;
          flush_waiting rt
        | exception _ ->
          (* spawn failed (fork pressure, bind race): retry forever on
             the same backoff schedule — a router with zero shards up
             still owes every parked request a response *)
          schedule_respawn rt ss
      end)
    rt.slots

(* ---------------- gray-failure detection ---------------- *)

let ping_line iid =
  Json.to_string (Json.Obj [ ("id", Json.Str iid); ("op", Json.Str "ping") ])

(* Heartbeats are in-band ping requests the shard answers off-queue (like
   health), so a responsive process pongs even with every worker busy.
   Any frame from the shard — pong or response — refreshes [s_hb_seen];
   an interval that elapses with nothing heard since the last ping is a
   miss, and [heartbeat_misses] consecutive misses eject the shard: a
   process that is alive but silent is indistinguishable from one that
   will never answer, and its inflight requests deserve their failover. *)
let heartbeat rt =
  if rt.cfg.heartbeat_ms > 0 then begin
    let now = Unix.gettimeofday () in
    let interval = float_of_int rt.cfg.heartbeat_ms /. 1000.0 in
    Array.iter
      (fun ss ->
        match ss.s_up with
        | None -> ()
        | Some ((sh, _) as up) ->
          if now -. ss.s_hb_sent >= interval then begin
            if ss.s_hb_sent > 0.0 && ss.s_hb_seen < ss.s_hb_sent then
              ss.s_hb_missed <- ss.s_hb_missed + 1
            else ss.s_hb_missed <- 0;
            if ss.s_hb_missed >= rt.cfg.heartbeat_misses then begin
              Health.bump rt.n ejections;
              prerr_endline
                (Printf.sprintf
                   "ipcp route: shard %d missed %d heartbeats; ejecting \
                    (pid %d)"
                   ss.s_slot ss.s_hb_missed (Shard.pid sh));
              shard_died ~eject:true rt ss.s_slot
            end
            else begin
              rt.pseq <- rt.pseq + 1;
              ss.s_hb_sent <- now;
              (* fire-and-forget: the pong is not ledgered — it falls to
                 [resolve]'s discard arm; liveness is tracked by
                 [s_hb_seen], which any frame refreshes *)
              let iid = Printf.sprintf "g%d.%d" rt.pseq ss.s_slot in
              if not (send up (ping_line iid)) then
                shard_died ~eject:true rt ss.s_slot
            end
          end)
      rt.slots
  end

(* The per-request deadline scan: a forward that outlived its window is
   hedged to the next ring slot, spending the request's one failover.
   The slow shard's ledger entry stays in place so its late answer is
   recognized and discarded, never double-delivered — the hedge trades
   at most one duplicate compute for bounded tail latency, and the
   one-terminal-frame conservation law survives because only the
   pending-table entry (removed exactly once) can emit. *)
let check_route_deadlines rt =
  if rt.cfg.route_deadline_ms > 0 then begin
    let now = Unix.gettimeofday () in
    let expired =
      Hashtbl.fold
        (fun _ p acc ->
          if
            (not p.p_rerouted)
            && p.p_slot >= 0
            && p.p_due > 0.0
            && now >= p.p_due
          then p :: acc
          else acc)
        rt.pending []
    in
    List.iter
      (fun p ->
        p.p_rerouted <- true;
        Health.bump rt.n deadline_expired;
        Health.bump rt.n hedged;
        let prev = p.p_slot in
        (* prefer any slot other than the slow one; a one-shard fleet
           can only retry the same slot *)
        let order =
          List.filter (fun s -> s <> prev) (Ring.order_from rt.ring p.p_rkey)
          @ [ prev ]
        in
        forward_order rt p order)
      (List.sort (fun a b -> compare a.p_iid b.p_iid) expired)
  end

(* ---------------- admission ---------------- *)

let health_request_line iid =
  Json.to_string
    (Json.Obj [ ("id", Json.Str iid); ("op", Json.Str "health") ])

let start_health rt sink =
  rt.hseq <- rt.hseq + 1;
  let a = { a_sink = sink; a_await = 0; a_docs = [] } in
  Array.iter
    (fun ss ->
      match ss.s_up with
      | None -> ()
      | Some up ->
        let iid = Printf.sprintf "h%d.%d" rt.hseq ss.s_slot in
        if send up (health_request_line iid) then begin
          Hashtbl.replace rt.aggs iid a;
          Hashtbl.replace ss.s_inflight iid ();
          a.a_await <- a.a_await + 1
        end
        else shard_died ~eject:true rt ss.s_slot)
    rt.slots;
  if a.a_await = 0 then finish_agg rt a

let admit rt line =
  if String.trim line <> "" then begin
    Server.Outlet.owe rt.out;
    Health.bump rt.n rx;
    match Request.of_line line with
    | Error pe ->
      Health.bump rt.n invalid;
      Server.Outlet.respond rt.out (Server.invalid_response pe)
    | Ok req when req.Request.rq_op = Request.Health ->
      start_health rt (`Client req.Request.rq_id)
    | Ok req ->
      let ikey = Request.input_key req in
      if Server.Breaker.decide rt.breaker ikey = `Deny then begin
        Health.bump rt.n quarantined;
        Server.Outlet.respond rt.out (Server.quarantined_response req)
      end
      else begin
        rt.seq <- rt.seq + 1;
        let iid = "x" ^ string_of_int rt.seq in
        let fields =
          match Json.of_string line with
          | Ok (Json.Obj fields) -> fields
          | Ok _ | Error _ -> []
          (* unreachable: of_line just parsed it as an object *)
        in
        let line' =
          Json.to_string
            (Json.Obj (("id", Json.Str iid) :: List.remove_assoc "id" fields))
        in
        let p =
          {
            p_iid = iid;
            p_orig_id = req.Request.rq_id;
            p_line = line';
            p_ikey = ikey;
            p_rkey = route_key req;
            p_rerouted = false;
            p_slot = -1;
            p_due = 0.0;
          }
        in
        Hashtbl.replace rt.pending iid p;
        forward rt p
      end
  end

(* ---------------- run ---------------- *)

let fresh_runtime_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    let d =
      Filename.concat base
        (Printf.sprintf "ipcp-route-%d-%d" (Unix.getpid ()) i)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

let run cfg =
  let cfg = { cfg with shards = max 1 cfg.shards } in
  let dir, dir_owned =
    match cfg.runtime_dir with
    | Some d ->
      (match Unix.mkdir d 0o700 with
      | () -> ()
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      (d, false)
    | None -> (fresh_runtime_dir (), true)
  in
  let rt =
    {
      cfg;
      ring = Ring.make ~slots:cfg.shards;
      slots =
        Array.init cfg.shards (fun slot ->
            {
              s_slot = slot;
              s_addr =
                Transport.Unix_sock
                  (Filename.concat dir (Printf.sprintf "shard-%d.sock" slot));
              s_up = None;
              s_inflight = Hashtbl.create 16;
              s_due = 0.0;
              s_restarts = 0;
              s_hb_sent = 0.0;
              s_hb_seen = 0.0;
              s_hb_missed = 0;
            });
      dir;
      dir_owned;
      pending = Hashtbl.create 64;
      waiting = Queue.create ();
      aggs = Hashtbl.create 8;
      breaker =
        Server.Breaker.create ~threshold:cfg.breaker_threshold ~reset_after:0;
      n = Health.table [ schema ];
      out = Server.Outlet.channel stdout;
      loop = Loop.create ();
      seq = 0;
      hseq = 0;
      pseq = 0;
      eof = false;
    }
  in
  Loop.with_signals @@ fun () ->
  (* initial fleet; a slot that fails to start is retried by the normal
     respawn schedule *)
  respawn_due rt;
  let stdin_conn =
    Loop.add rt.loop
      ~on_line:(fun line ->
        if Loop.stopping () then
          Server.reject_drained line (fun r ->
              Server.Outlet.owe rt.out;
              Health.bump rt.n rx;
              Health.bump rt.n drained;
              Server.Outlet.respond rt.out r)
        else admit rt line)
      ~on_end:(fun _ -> rt.eof <- true)
      Unix.stdin
  in
  let tick () =
    (* stop wins over unread input: lines already readable get typed
       drain rejections, not silence *)
    if Loop.stopping () then Loop.finish rt.loop stdin_conn;
    respawn_due rt;
    heartbeat rt;
    check_route_deadlines rt
  in
  (* the conservation law of a socket connection, applied to stdout: the
     router is done once the client is and every admitted line has its
     terminal frame *)
  Loop.run rt.loop ~tick ~until:(fun () ->
      rt.eof && Server.Outlet.owing rt.out = 0);
  (* final merged snapshot, while the shards still answer *)
  (match cfg.health_out with
  | None -> ()
  | Some path ->
    start_health rt (`File path);
    let deadline = Unix.gettimeofday () +. 5.0 in
    Loop.run rt.loop ~tick:ignore ~until:(fun () ->
        Hashtbl.length rt.aggs = 0 || Unix.gettimeofday () >= deadline));
  Array.iter (fun ss -> Option.iter (fun (sh, _) -> Shard.terminate sh) ss.s_up)
    rt.slots;
  if rt.dir_owned then (try Unix.rmdir rt.dir with Unix.Unix_error _ -> ());
  Server.Outlet.close rt.out
