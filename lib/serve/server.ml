open Ipcp_core
module Fault = Ipcp_support.Fault
module Prng = Ipcp_support.Prng
module Incr = Ipcp_incr.Incr
module Copy_incr = Ipcp_incr.Incr.Make (Ipcp_analysis.Copy_analysis)
module Copy_driver = Driver.Make (Ipcp_analysis.Copy_analysis)

type config = {
  workers : int;
  queue_capacity : int;
  queue_policy : Bqueue.policy;
  breaker_threshold : int;
  breaker_reset_after : int;
  cache_dir : string option;
  cache_max_entries : int option;
  certify_sample : float;
  certify_cache_hits : bool;
  backoff_base_ms : int;
  backoff_cap_ms : int;
  seed : int;
  health_out : string option;
  read_timeout_ms : int;
  max_line : int;
  prepare_memo : int;
}

let default_config =
  {
    workers = 1;
    queue_capacity = 64;
    queue_policy = Bqueue.Reject_new;
    breaker_threshold = 3;
    breaker_reset_after = 0;
    cache_dir = None;
    cache_max_entries = Some 4096;
    certify_sample = 0.0;
    certify_cache_hits = true;
    backoff_base_ms = 10;
    backoff_cap_ms = 1000;
    seed = 0;
    health_out = None;
    read_timeout_ms = 10_000;
    max_line = 1 lsl 20;
    prepare_memo = 64;
  }

(* Whether the online certification policy samples response [seq] — a
   pure function of (seed, rate, seq), never of worker count or timing,
   so the sampled set is identical however the work is scheduled.  The
   multiplier keeps the stream disjoint from the backoff-jitter PRNG
   family, which hashes the same seed. *)
let certify_sampled ~seed ~rate ~seq =
  rate > 0.0
  && (rate >= 1.0 || Prng.chance (Prng.create ((seed * 777_767) + seq)) rate)

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec scan i = i + k <= n && (String.sub s i k = sub || scan (i + 1)) in
  k = 0 || scan 0

(* ---------------- readings ---------------- *)

(* Every reading a server reports, each name written once; the state's
   table starts them all at 0. *)
let schema = Health.schema ()
let counter = Health.counter schema
let requests = counter "serve.requests"
let completed = counter "serve.completed"
let errors = counter "serve.errors"
(* responses withheld because online certification failed *)
let cert_withheld = counter "serve.certification_failed"
let shed = counter "serve.shed"
let rejected = counter "serve.rejected"
let quarantined = counter "serve.quarantined"
let invalid = counter "serve.invalid"
let delta_updates = counter "serve.delta_updates"
let delta_fresh = counter "serve.delta_fresh"
let conns_accepted = counter "serve.conns_accepted"
(* responses undeliverable because the client connection died *)
let client_gone = counter "serve.client_gone"
let req_oversize = counter "serve.req_oversize"
let req_timeout = counter "serve.req_timeout"
let memo_hits = counter "serve.prepare_memo_hits"
let cert_sampled = counter "certify.sampled"
let cert_passed = counter "certify.passed"
let cert_failed = counter "certify.failed"
(* online checks forced by the cache-hit / restored-session policy *)
let cert_cache_checked = counter "certify.cache_hits_checked"
let cone_size = counter "incr.cone_size"
let procs_reused = counter "incr.procs_reused"
let procs_resolved = counter "incr.procs_resolved"
let worker_restarts = Health.gauge schema "serve.worker_restarts"

(* Declared only when an artifact cache is configured: commits refused
   by the disk, each one arming or re-arming the cacheless latch. *)
let cache_schema = Health.schema ()
let cache_disk_errors = Health.counter cache_schema "serve.cache_disk_errors"

(* Worker domains log through one mutex so accounting entries never
   interleave mid-line. *)
let log_mu = Mutex.create ()

let log_line s = Mutex.protect log_mu (fun () -> prerr_endline s)

(* ---------------- outlets ---------------- *)

(* The stderr accounting entry for a response whose client vanished: the
   frame that could not be delivered, addressed and typed E-LOAD-GONE,
   so an auditor can still match every submitted request to exactly one
   terminal outcome (wire frame or log entry). *)
let gone_entry (r : Request.response) =
  Request.response_to_line
    (Request.response ~id:r.Request.rs_id
       ~reason:"client connection gone before the response could be written"
       ~error:
         (Err.gone
            (Printf.sprintf
               "terminal %s response undeliverable: client closed the \
                connection first"
               (Request.status_name r.Request.rs_status)))
       r.Request.rs_status)

module Outlet = struct
  (* Where terminal responses go: a stdio channel (the server's or the
     router's stdout), or the client connection that submitted them in
     socket mode, whose losses are charged to that server's [n].
     [pending] counts terminal responses owed to the peer — the
     conservation ledger; [dead] latches on the first failed write. *)
  type t = {
    mu : Mutex.t;
    dest : [ `Channel of out_channel | `Sock of Transport.Outbuf.t * Health.t ];
    mutable dead : bool;
    mutable pending : int;
  }

  let make dest = { mu = Mutex.create (); dest; dead = false; pending = 0 }
  let channel oc = make (`Channel oc)

  (* One request line was submitted on this outlet: a terminal response is
     now owed. *)
  let owe o = Mutex.protect o.mu (fun () -> o.pending <- o.pending + 1)
  let owing o = Mutex.protect o.mu (fun () -> o.pending)

  (* Latch dead, charging a socket's loss once, under [o.mu]. *)
  let lose o entry =
    if not o.dead then begin
      o.dead <- true;
      match o.dest with
      | `Channel _ -> ()
      | `Sock (_, n) ->
        Health.bump n client_gone;
        log_line entry
    end

  (* One frame per response, flushed immediately so a client sees each
     result as it lands.  A dead outlet latches: the owner keeps draining
     — jobs are cheap to finish and the accounting stays consistent — but
     stops writing to that peer.  On a channel this surfaces as exit 3
     ({!close}); on a socket the loss is counted and logged (E-LOAD-GONE)
     and the server lives on — one flaky client must never kill the
     shard. *)
  let respond o r =
    Mutex.protect o.mu (fun () ->
        (if not o.dead then
           let line = Request.response_to_line r ^ "\n" in
           match o.dest with
           | `Channel oc -> (
             try
               output_string oc line;
               flush oc
             with Sys_error _ -> o.dead <- true)
           | `Sock (ob, _) -> (
             (* never blocks: the kernel-refused tail is buffered and
                resumed from the select loop when the fd turns writable *)
             match Transport.Outbuf.write ob line with
             | `Ok | `Buffered -> ()
             | `Dead -> lose o (gone_entry r)));
        o.pending <- o.pending - 1)

  (* The peer stopped reading and its buffered response tail outgrew the
     cap, or the resumed write failed hard: charge the loss once. *)
  let tail_gone o =
    Mutex.protect o.mu (fun () ->
        lose o
          (Request.response_to_line
             (Request.response ~id:""
                ~reason:
                  "client connection gone with buffered response bytes \
                   undelivered"
                ~error:
                  (Err.gone
                     "buffered response tail undeliverable: peer closed or \
                      stopped reading")
                Request.Error_crash)))

  (* The final flush of a channel outlet: the exit code of its owner. *)
  let close o =
    Mutex.protect o.mu (fun () ->
        (match o.dest with
        | `Channel oc when not o.dead -> (
          try flush oc with Sys_error _ -> o.dead <- true)
        | _ -> ());
        if o.dead then Jobs.exit_input else 0)
end

type job = { j_seq : int; j_req : Request.t; j_probe : bool; j_outlet : Outlet.t }

(* ---------------- circuit breaker ---------------- *)

module Breaker = struct
  (* One entry per input.  [denied]/[probing] implement the half-open
     policy: after [reset_after] quarantined responses, the next request
     runs as a probe instead of being denied; a successful probe closes
     the breaker (the entry is removed), a crashing or failing one
     re-opens it with a fresh denial window. *)
  type entry = {
    mutable crashes : int;
    mutable denied : int;
    mutable probing : bool;
  }

  type t = {
    threshold : int;
    reset_after : int;
    mu : Mutex.t;
    entries : (string, entry) Hashtbl.t;
  }

  let create ~threshold ~reset_after =
    {
      threshold;
      reset_after;
      mu = Mutex.create ();
      entries = Hashtbl.create 16;
    }

  let entry b key =
    match Hashtbl.find_opt b.entries key with
    | Some e -> e
    | None ->
      let e = { crashes = 0; denied = 0; probing = false } in
      Hashtbl.replace b.entries key e;
      e

  let decide b key =
    if b.threshold <= 0 then `Run false
    else
      Mutex.protect b.mu (fun () ->
          match Hashtbl.find_opt b.entries key with
          | None -> `Run false
          | Some e ->
            if e.crashes < b.threshold then `Run false
            else if
              b.reset_after > 0 && (not e.probing) && e.denied >= b.reset_after
            then begin
              e.probing <- true;
              `Run true
            end
            else begin
              e.denied <- e.denied + 1;
              `Deny
            end)

  let note b key ~crashed =
    if b.threshold > 0 then
      Mutex.protect b.mu (fun () ->
          if crashed then begin
            let e = entry b key in
            e.crashes <- e.crashes + 1;
            e.denied <- 0;
            e.probing <- false
          end
          else Hashtbl.remove b.entries key)

  let trip b key =
    if b.threshold > 0 then
      Mutex.protect b.mu (fun () ->
          let e = entry b key in
          e.crashes <- max e.crashes b.threshold;
          e.denied <- 0;
          e.probing <- false)

  let release_probe b key =
    Mutex.protect b.mu (fun () ->
        Option.iter
          (fun e -> e.probing <- false)
          (Hashtbl.find_opt b.entries key))

  let counts b =
    Mutex.protect b.mu (fun () ->
        ( Hashtbl.fold
            (fun _ e n -> if e.crashes >= b.threshold then n + 1 else n)
            b.entries 0,
          Hashtbl.length b.entries ))
end

type state = {
  cfg : config;
  mu : Mutex.t;  (** guards queue, draining, [cache_down_since] *)
  cond : Condition.t;  (** queue became non-empty, or draining began *)
  queue : job Bqueue.t;
  mutable draining : bool;
  breaker : Breaker.t;
  cache : Cache.t option;
  sess_mu : Mutex.t;  (** guards [sessions] only: get/put, never a solve *)
  sessions : (string, Incr.session) Hashtbl.t;
      (** incremental sessions pinned per session name *)
  copy_sessions : (string, Copy_incr.session) Hashtbl.t;
      (** the copy-propagation sessions, in their own namespace — a
          session is one lattice's fixpoint and must never be updated
          under the other *)
  n : Health.t;
  memo_mu : Mutex.t;  (** guards the prepare memo *)
  prep_memo : (string, string) Hashtbl.t;
      (** serialized prepared artifacts by cache key — the same-program
          batching layer: one [prepare], then cheap decodes *)
  memo_order : string Queue.t;  (** FIFO eviction order of the memo *)
  kill_input : string option;
      (** test-only: SIGKILL the whole process when executing a matching
          input (IPCP_SERVE_KILL_INPUT) — how the shard-failover
          harnesses fell a shard deterministically *)
  stall_input : string option;
      (** test-only: sleep [stall_ms] when executing a matching input
          (IPCP_SERVE_STALL_INPUT) — the gray-failure twin of
          [kill_input]: the worker hangs past any router deadline but
          the process stays alive and keeps answering pings *)
  stall_ms : int;  (** sleep length of a stalled input (IPCP_SERVE_STALL_MS) *)
  mutable cache_down_since : float option;
      (** the cacheless-degradation latch: [Some t] after a disk fault
          during a cache commit at time [t]; guarded by [mu].  While
          set, requests bypass the cache entirely (and keep answering
          [ok]); after {!cache_retry_after} seconds the next store acts
          as a probe that either closes the latch or re-arms it *)
}

(* ---------------- health ---------------- *)

(* This server's health document: the levels only its live state knows
   and its cache's own counters, beside its table. *)
let snapshot ?out st =
  let gauges, cache_counters =
    Mutex.protect st.mu (fun () ->
        let quarantined_inputs, breaker_entries = Breaker.counts st.breaker in
        let live =
          [
            ("serve.queue_depth", Bqueue.length st.queue);
            ("serve.queue_capacity", Bqueue.capacity st.queue);
            ("serve.workers", st.cfg.workers);
            ("serve.quarantined_inputs", quarantined_inputs);
            ("serve.breaker_entries", breaker_entries);
          ]
        in
        match st.cache with
        | None -> (live, [])
        | Some c ->
          let s = Cache.stats c in
          ( ("serve.cache_disabled", Bool.to_int (st.cache_down_since <> None))
            :: live,
            [
              ("serve.cache_hits", s.hits);
              ("serve.cache_misses", s.misses);
              ("serve.cache_corrupt", s.corrupt);
              ("serve.cache_stores", s.stores);
              ("serve.cache_evictions", s.evictions);
            ] ))
  in
  Health.snapshot ?out ~gauges ~counters:cache_counters st.n

(* ---------------- job execution ---------------- *)

let resolve_target (req : Request.t) =
  match req.rq_target with
  | None -> assert false (* only analyze/certify come through here *)
  | Some (Request.Suite name) -> (
    match Ipcp_suite.Registry.find name with
    | None ->
      Error
        {
          Jobs.out = "";
          err = Fmt.str "error: unknown suite program %S@." name;
          code = Jobs.exit_input;
        }
    | Some e -> Ok (name, e.source, Ipcp_suite.Registry.program e))
  | Some (Request.File path) -> (
    match Jobs.load path with
    | Error o -> Error o
    | Ok (src, prog) -> Ok (path, src, prog))

(* The in-memory prepare memo: serialized artifacts by cache key.  Each
   hit decodes a private copy (the live value may carry mutable memo
   state and must not be shared across worker domains); a decode is far
   cheaper than a prepare, which is what batches same-program requests
   into one [prepare] + N [solve].  Serialized-in-process bytes never
   crossed a trust boundary, so memo hits do NOT set the from-disk flag
   the always-certify-on-cache-hit policy keys on — response statuses
   stay identical with the memo on or off. *)
let memo_find st key =
  if st.cfg.prepare_memo <= 0 then None
  else begin
    match
      Mutex.protect st.memo_mu (fun () -> Hashtbl.find_opt st.prep_memo key)
    with
    | None -> None
    | Some p -> (
      match Driver.artifacts_of_string p with
      | Some a ->
        Health.bump st.n memo_hits;
        Some a
      | None -> None)
  end

let memo_store st key artifacts =
  if st.cfg.prepare_memo > 0 then begin
    let payload = Driver.artifacts_to_string artifacts in
    Mutex.protect st.memo_mu (fun () ->
        if not (Hashtbl.mem st.prep_memo key) then begin
          Hashtbl.replace st.prep_memo key payload;
          Queue.add key st.memo_order;
          if Queue.length st.memo_order > st.cfg.prepare_memo then
            Hashtbl.remove st.prep_memo (Queue.pop st.memo_order)
        end)
  end

(* ---------------- cacheless degradation ---------------- *)

(* How long the server stays cacheless after a disk fault before the
   next commit is allowed to probe the device again. *)
let cache_retry_after = 1.0

(* The disk cache, unless the degradation latch is armed.  While armed
   (and inside the retry window) every caller sees [None] and serves
   cacheless — the cache is an accelerator, never a reason to fail a
   request.  Once the window expires the cache comes back as a probe:
   the next successful commit closes the latch ({!note_store}), a
   failing one re-arms it with a fresh window. *)
let cache_for st =
  match st.cache with
  | None -> None
  | Some c ->
    let down =
      Mutex.protect st.mu (fun () ->
          match st.cache_down_since with
          | None -> false
          | Some t0 -> Unix.gettimeofday () -. t0 < cache_retry_after)
    in
    if down then None else Some c

(* The stderr accounting frame for a disk fault: typed E-LOAD-DISK,
   lintable like the E-LOAD-GONE entries, never on the wire. *)
let disk_entry detail =
  Request.response_to_line
    (Request.response ~id:"cache"
       ~reason:
         "disk fault during artifact-cache commit; cache disabled, serving \
          cacheless"
       ~error:(Err.disk detail) Request.Error_crash)

(* Account one cache-commit outcome: success closes the degradation
   latch, failure arms (or re-arms) it.  The accounting frame is logged
   once per armed window, not once per refused commit. *)
let note_store st = function
  | Ok () -> Mutex.protect st.mu (fun () -> st.cache_down_since <- None)
  | Error detail ->
    Health.bump st.n cache_disk_errors;
    let newly_down =
      Mutex.protect st.mu (fun () ->
          let newly_down = st.cache_down_since = None in
          st.cache_down_since <- Some (Unix.gettimeofday ());
          newly_down)
    in
    if newly_down then log_line (disk_entry detail)

(* Prepared artifacts: first the in-memory memo, then the disk cache
   when one is configured.  A corrupt or missing disk entry recomputes
   silently; the recomputed result is stored back, so the next request
   is warm again.  The returned flag says the artifacts came from disk —
   the deserialization event the always-certify-on-cache-hit policy
   keys on (a memo hit deliberately does not set it). *)
let artifacts_for st ~source prog =
  let key = Cache.key ~source in
  match memo_find st key with
  | Some a -> (a, false)
  | None -> (
    match cache_for st with
    | None ->
      let a = Driver.prepare prog in
      memo_store st key a;
      (a, false)
    | Some c -> (
      match Cache.find c ~key with
      | Some a -> (a, true)
      | None ->
        let a = Driver.prepare prog in
        note_store st (Cache.store c ~key a);
        memo_store st key a;
        (a, false)))

(* ---------------- online certification ---------------- *)

(* The verdict of one online certification: why the check ran, and the
   typed cause when it failed (None = the response is certified). *)
type verdict = {
  vd_sampled : bool;  (** chosen by the seeded sample rate *)
  vd_cache : bool;  (** forced by the cache-hit / restored-session policy *)
  vd_failure : Err.t option;
}

(* What executing one job produces: the rendered outcome, the typed
   budget-degradation caveat for its [ok] frame (if any), and the online
   certification verdict (when the policy checked this response). *)
type exec = {
  ex_out : Jobs.outcome;
  ex_typed : Err.t option;
  ex_verdict : verdict option;
}

let plain out = { ex_out = out; ex_typed = None; ex_verdict = None }

(* Sound degradation is not an error, but it is a typed caveat: clients
   inspecting a degraded [ok] frame learn which budget bit without
   parsing renderer text. *)
let budget_err reasons =
  let module B = Ipcp_support.Budget in
  match reasons with
  | [] -> None
  | first :: _ ->
    let code =
      match first with
      | B.Steps _ -> "E-BUDGET-STEPS"
      | B.Deadline _ -> "E-BUDGET-DEADLINE"
      | B.Starved _ -> "E-BUDGET-STARVED"
    in
    Some
      (Err.budget ~code
         (Fmt.str "analysis degraded soundly: %a"
            Fmt.(list ~sep:(any "; ") B.pp_reason)
            reasons))

(* The served-solution corruption site.  Keyed on the request sequence
   number (like [serve.worker:<seq>:<k>]) so which responses are
   corrupted is a pure function of the input stream; the fuzz harness
   uses it to prove that with certification on, a corrupted solution
   never leaves the server as an [ok] frame. *)
let solution_fault_site seq = Printf.sprintf "serve.solution:%d" seq

(* ---------------- incremental sessions ---------------- *)

let proc_cache_key hash = Cache.key ~source:("incr-proc\x00" ^ hash)

(* The serving path for one analysis: the analyze / analyze-delta /
   certify job bodies, the online certification policy, and the
   analyze-delta session machinery (pinned-session lookup, persistence,
   and the seeded update).  Each instantiation works on its own session
   table (passed per call — [state] holds one table per analysis) and
   its own cache namespace, so a persisted fixpoint is never decoded
   under the wrong lattice; [Incr.Make(A).import] also refuses such a
   manifest by configuration. *)
module Analysis_serve (A : Ipcp_analysis.Analysis_sig.S) = struct
  module I = Ipcp_incr.Incr.Make (A)
  module D = Driver.Make (A)
  module C = Ipcp_certify.Certify.Make (A)
  module J = Jobs.Of (A)

  (* constant propagation keeps the historical key so warm caches stay
     valid across this change; other analyses extend the namespace *)
  let session_cache_key name =
    let prefix =
      if A.name = "const" then "incr-session\x00"
      else "incr-session\x00" ^ A.name ^ "\x00"
    in
    Cache.key ~source:(prefix ^ name)

  let session_get st sessions name =
    Mutex.protect st.sess_mu (fun () -> Hashtbl.find_opt sessions name)

  let session_put st sessions name sess =
    Mutex.protect st.sess_mu (fun () -> Hashtbl.replace sessions name sess)

  (* Persist one session as per-procedure entries plus a manifest, each a
     crash-safe cache entry.  Blobs are content-addressed by strict hash,
     so consecutive versions share the entries of their unchanged
     procedures; the manifest (stored last, after every blob it references
     is durable) pins the session name to its current version. *)
  let persist_session st name sess =
    match cache_for st with
    | None -> ()
    | Some c ->
      let manifest, blobs = I.export sess in
      let failed =
        List.exists
          (fun (hash, payload) ->
            let r = Cache.store_blob c ~key:(proc_cache_key hash) payload in
            note_store st r;
            Result.is_error r)
          blobs
      in
      (* the manifest is stored last, and only if every blob it
         references is durable: a disk fault mid-persist must never pin
         the session name to missing pieces *)
      if not failed then
        note_store st (Cache.store_blob c ~key:(session_cache_key name) manifest)

  (* A session not pinned in memory (fresh server, or evicted by restart)
     may still be reassembled from cached pieces. *)
  let restore_session st name =
    match cache_for st with
    | None -> None
    | Some c -> (
      match Cache.find_blob c ~key:(session_cache_key name) with
      | None -> None
      | Some manifest ->
        I.import ~manifest ~lookup:(fun hash ->
            Cache.find_blob c ~key:(proc_cache_key hash)))

  (* Serve analyze-delta: update the pinned session when one exists under
     the same configuration, otherwise start one.  The result is the same
     value a from-scratch solve would produce (the Incr layer's
     byte-identity contract), so the response frame does not depend on the
     session state — only the cost does. *)
  let delta_result st sessions (req : Request.t) ~config prog :
      A.L.t Driver.analysis_result * bool =
    let name = req.rq_session in
    let prev, restored =
      match session_get st sessions name with
      | Some s -> (Some s, false)
      | None -> (
        match restore_session st name with
        | Some s -> (Some s, true)
        | None -> (None, false))
    in
    let sess, stats, restored =
      match prev with
      | Some s when Config.equal (I.config s) config ->
        let s', stats = I.update ~prev:s prog in
        (s', Some stats, restored)
      | _ -> (I.start config prog, None, false)
    in
    session_put st sessions name sess;
    persist_session st name sess;
    (match stats with
    | Some (s : Ipcp_incr.Incr.stats) ->
      Health.bump st.n delta_updates;
      Health.add st.n cone_size s.cone_size;
      Health.add st.n procs_reused s.procs_reused;
      Health.add st.n procs_resolved s.procs_resolved
    | None ->
      let total = List.length prog.Ipcp_frontend.Prog.procs in
      Health.bump st.n delta_fresh;
      Health.add st.n cone_size total;
      Health.add st.n procs_resolved total);
    (I.result sess, restored)

  (* ---- the online certification policy for this analysis ---- *)

  (* Apply the [serve.solution:<seq>] corruption site to a solved result
     before rendering: when armed, the served bytes really are the
     corrupted solution's, and only the online check stands between them
     and the client. *)
  let corrupt_point ~seq t =
    match Fault.corruption (solution_fault_site seq) with
    | None -> t
    | Some seed -> ( match C.corrupt ~seed t with Some t' -> t' | None -> t)

  (* The online check.  [from_cache] marks results that went through a
     deserialization (artifact cache hit, or a session restored from
     cached blobs); [check_ident] additionally compares the decoded
     artifacts' program against the freshly parsed request source — a
     swapped-but-internally-consistent cache entry certifies cleanly,
     so identity is its own obligation (E-CERT-ARTIFACT). *)
  let verdict st ~seq ~from_cache ~check_ident ~prog
      (t : A.L.t Driver.analysis_result) =
    let sampled =
      certify_sampled ~seed:st.cfg.seed ~rate:st.cfg.certify_sample ~seq
    in
    let via_cache = from_cache && st.cfg.certify_cache_hits in
    if not (sampled || via_cache) then None
    else
      let failure =
        if
          check_ident && from_cache
          && Ipcp_frontend.Pretty.program_to_string t.Driver.prog
             <> Ipcp_frontend.Pretty.program_to_string prog
        then
          Some
            (Err.certification ~code:"E-CERT-ARTIFACT"
               "cached artifacts decode cleanly but describe a different \
                program than the submitted source")
        else
          let r = C.check ~inject_fault:false t in
          if Ipcp_certify.Certify.ok r then None
          else
            let v = List.hd r.Ipcp_certify.Certify.violations in
            let n = List.length r.Ipcp_certify.Certify.violations in
            Some
              (Err.certification
                 ~loc:
                   (Fmt.str "%s:%s" v.Ipcp_certify.Certify.v_proc
                      (Ipcp_frontend.Loc.to_string v.Ipcp_certify.Certify.v_loc))
                 ~code:v.Ipcp_certify.Certify.v_code
                 (Fmt.str "%s (%d violation%s, %d obligations checked)"
                    v.Ipcp_certify.Certify.v_msg n
                    (if n = 1 then "" else "s")
                    r.Ipcp_certify.Certify.obligations))
      in
      Some { vd_sampled = sampled; vd_cache = via_cache; vd_failure = failure }

  (* ---- the job bodies (analyze / analyze-delta / certify) ---- *)

  let analyze st ~seq (req : Request.t) ~config ~source prog =
    let artifacts, hit = artifacts_for st ~source prog in
    let t = D.solve config artifacts in
    let t = corrupt_point ~seq t in
    {
      ex_out = J.analyze ~certify:req.rq_certify ~solved:t ~config ~jobs:1 prog;
      ex_typed = budget_err (Driver.degraded t);
      ex_verdict = verdict st ~seq ~from_cache:hit ~check_ident:true ~prog t;
    }

  let analyze_delta st sessions ~seq (req : Request.t) ~config prog =
    let t, restored = delta_result st sessions req ~config prog in
    let t = corrupt_point ~seq t in
    {
      ex_out = J.analyze ~certify:req.rq_certify ~solved:t ~config ~jobs:1 prog;
      ex_typed = budget_err (Driver.degraded t);
      ex_verdict =
        (* a session reassembled from cached blobs is a deserialization
           event exactly like an artifact cache hit; grafted procedures
           from it flow into the served fixpoint, so the result is
           certified unconditionally under the cache-hit policy *)
        verdict st ~seq ~from_cache:restored ~check_ident:false ~prog t;
    }

  let certify_op st (req : Request.t) ~config ~name ~source prog =
    (* the in-band certifier *is* this op's rendering — the online
       policy would only re-run the same check on the same solution *)
    let artifacts, _hit = artifacts_for st ~source prog in
    let t = D.solve config artifacts in
    plain
      (J.certification ?fuel:req.rq_fuel ~input:req.rq_input
         ~label:(Fmt.str "%s, %s" name (Config.to_string config))
         t)
end

module Delta_const = Analysis_serve (Ipcp_analysis.Const_analysis)
module Delta_copy = Analysis_serve (Ipcp_analysis.Copy_analysis)

let run_job st ~seq (req : Request.t) : exec =
  match req.rq_op with
  | Request.Health | Request.Ping -> assert false (* answered by the loop *)
  | Request.Tables ->
    plain
      (Jobs.tables ~analysis:req.rq_analysis ~certify:req.rq_certify
         ?max_steps:req.rq_max_steps ?deadline_ms:req.rq_deadline_ms ~jobs:1 ())
  | Request.Analyze | Request.Analyze_delta | Request.Certify -> (
    match resolve_target req with
    | Error o -> plain o
    | Ok (name, source, prog) -> (
      let config = Request.config_of req in
      match (req.rq_op, config.Config.analysis) with
      | Request.Analyze, `Const ->
        Delta_const.analyze st ~seq req ~config ~source prog
      | Request.Analyze, `Copy ->
        Delta_copy.analyze st ~seq req ~config ~source prog
      | Request.Analyze_delta, `Const ->
        Delta_const.analyze_delta st st.sessions ~seq req ~config prog
      | Request.Analyze_delta, `Copy ->
        Delta_copy.analyze_delta st st.copy_sessions ~seq req ~config prog
      | Request.Certify, `Const ->
        Delta_const.certify_op st req ~config ~name ~source prog
      | Request.Certify, `Copy ->
        Delta_copy.certify_op st req ~config ~name ~source prog
      | (Request.Tables | Request.Health | Request.Ping), _ -> assert false))

(* ---------------- worker supervision ---------------- *)

(* Restart delay of a worker slot's [r]-th consecutive crash: capped
   exponential backoff plus deterministic jitter — a pure function of
   (seed, slot, r), so a seeded fault run waits the same everywhere. *)
let backoff_ms ~base ~cap ~seed ~slot ~restart =
  let delay = base * (1 lsl min (restart - 1) 16) in
  let capped = min cap (max base delay) in
  let prng = Prng.create ((seed * 1_000_003) + (slot * 8191) + restart) in
  capped + Prng.int prng (capped + 1)

let quarantined_response (req : Request.t) =
  let key = Request.input_key req in
  Request.response ~id:req.rq_id
    ~reason:(Printf.sprintf "input %s is quarantined" key)
    ~error:
      (Err.quarantined
         (Printf.sprintf
            "circuit breaker open for %s after repeated failures" key))
    Request.Quarantined

let invalid_response (pe : Request.parse_error) =
  Request.response ~id:pe.Request.pe_id ~reason:pe.Request.pe_reason
    ~error:
      (Err.request
         ~code:(Request.error_code_name pe.Request.pe_code)
         pe.Request.pe_reason)
    Request.Invalid

(* A request line that was read but never admitted (the server began
   draining first) still gets its terminal frame, handed to [emit]. *)
let reject_drained line emit =
  if String.trim line <> "" then
    let id =
      match Request.of_line line with
      | Ok r -> r.Request.rq_id
      | Error pe -> pe.Request.pe_id
    in
    emit
      (Request.response ~id ~reason:"server is draining"
         ~error:
           (Err.draining "request line read but never admitted before drain")
         Request.Rejected)

let certification_failed_response (req : Request.t) (e : Err.t) =
  Request.response ~id:req.rq_id ~code:Jobs.exit_internal
    ~reason:"online certification failed; response withheld and input \
             quarantined"
    ~error:e Request.Certification_failed

(* Book-keeping of one online verdict. *)
let note_verdict n (v : verdict) =
  if v.vd_sampled then Health.bump n cert_sampled;
  if v.vd_cache then Health.bump n cert_cache_checked;
  match v.vd_failure with
  | None -> Health.bump n cert_passed
  | Some _ ->
    Health.bump n cert_failed;
    Health.bump n cert_withheld

(* The worker-entry fault point.  Keyed on the request sequence number —
   not the worker slot or wall clock — so which requests crash is a pure
   function of the input stream, identical at every worker count.  Eight
   sub-draws amplify the site: serve-level crashes then fire at rates
   where the deeper, request-shared pipeline sites (whose single draw
   would fell every request at once) stay quiet. *)
let worker_fault_point seq =
  for k = 0 to 7 do
    Fault.inject (Printf.sprintf "serve.worker:%d:%d" seq k)
  done

(* Execute one job inside the worker's incarnation: a crash — the job's
   own exception or an injected fault at [serve.worker:<seq>:<k>] —
   answers [error] for this request only, and the slot restarts after
   backoff. *)
let execute st ~slot ~restarts job =
  let req = job.j_req in
  let key = Request.input_key req in
  (* test-only: IPCP_SERVE_KILL_INPUT=<fragment> fells the whole process
     with SIGKILL when executing a matching input — the deterministic
     poison pill the shard-failover harnesses drop on one shard *)
  (match st.kill_input with
  | Some frag when frag <> "" && contains ~sub:frag key ->
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ());
  (* test-only: IPCP_SERVE_STALL_INPUT=<fragment> is the gray twin —
     the worker sleeps past any router deadline without crashing, while
     the event loop keeps answering pings; how the hedged-failover harness
     makes one shard slow-but-alive *)
  (match st.stall_input with
  | Some frag when frag <> "" && contains ~sub:frag key ->
    Unix.sleepf (float_of_int st.stall_ms /. 1000.)
  | _ -> ());
  let decision =
    (* a probe admitted by the loop already holds the half-open slot;
       deciding again here would deny it against its own probe *)
    if job.j_probe then `Run true else Breaker.decide st.breaker key
  in
  match decision with
  | `Deny ->
    Health.bump st.n quarantined;
    Outlet.respond job.j_outlet (quarantined_response req);
    0
  | `Run _probe -> (
    match
      worker_fault_point job.j_seq;
      run_job st ~seq:job.j_seq req
    with
    | { ex_verdict = Some ({ vd_failure = Some e; _ } as v); _ } ->
      (* never emitted as [ok]: the rendered outcome is discarded, the
         client gets the typed terminal frame, and the input is
         quarantined — serving it again would serve the same corruption *)
      Breaker.trip st.breaker key;
      note_verdict st.n v;
      Outlet.respond job.j_outlet (certification_failed_response req e);
      0
    | o ->
      Breaker.note st.breaker key ~crashed:false;
      Option.iter (note_verdict st.n) o.ex_verdict;
      Health.bump st.n completed;
      Outlet.respond job.j_outlet
        (Request.response ~id:req.rq_id ~code:o.ex_out.Jobs.code
           ~stdout:o.ex_out.Jobs.out ~stderr:o.ex_out.Jobs.err
           ?error:o.ex_typed Request.Ok_done);
      0
    | exception e ->
      Breaker.note st.breaker key ~crashed:true;
      Health.bump st.n errors;
      Outlet.respond job.j_outlet
        (Request.response ~id:req.rq_id ~code:Jobs.exit_internal
           ~reason:(Printexc.to_string e)
           ~error:(Err.worker_crash (Printexc.to_string e))
           Request.Error_crash);
      let restart = restarts + 1 in
      Health.bump st.n worker_restarts;
      let delay =
        backoff_ms ~base:st.cfg.backoff_base_ms ~cap:st.cfg.backoff_cap_ms
          ~seed:st.cfg.seed ~slot ~restart
      in
      Unix.sleepf (float_of_int delay /. 1000.0);
      restart)

let worker st slot () =
  let rec loop restarts =
    let next =
      Mutex.protect st.mu (fun () ->
          let rec wait () =
            match Bqueue.pop st.queue with
            | Some j -> Some j
            | None ->
              if st.draining then None
              else begin
                Condition.wait st.cond st.mu;
                wait ()
              end
          in
          wait ())
    in
    match next with
    | None -> ()
    | Some job -> loop (execute st ~slot ~restarts job)
  in
  loop 0

(* ---------------- admission (event-loop side) ---------------- *)

let handle_line st ~outlet ~seq line =
  if String.trim line <> "" then begin
    Outlet.owe outlet;
    Health.bump st.n requests;
    match Request.of_line line with
    | Error pe ->
      Health.bump st.n invalid;
      Outlet.respond outlet (invalid_response pe)
    | Ok req -> (
      match req.rq_op with
      | Request.Health ->
        (* answered inline: health must work under full queues *)
        let doc = snapshot st in
        Outlet.respond outlet
          (Request.response ~id:req.rq_id ~code:0 ~health:doc Request.Ok_done)
      | Request.Ping ->
        (* answered inline like health: a pong proves the process is
           alive and reading even when every worker is busy or stalled —
           exactly the liveness signal the router's heartbeats probe *)
        Outlet.respond outlet
          (Request.response ~id:req.rq_id ~code:0 Request.Ok_done)
      | _ -> (
        let key = Request.input_key req in
        match Breaker.decide st.breaker key with
        | `Deny ->
          Health.bump st.n quarantined;
          Outlet.respond outlet (quarantined_response req)
        | `Run probe -> (
          let admit =
            Mutex.protect st.mu (fun () ->
                let a =
                  Bqueue.push st.queue
                    { j_seq = seq; j_req = req; j_probe = probe;
                      j_outlet = outlet }
                in
                (match a with
                | Bqueue.Enqueued | Bqueue.Displaced _ ->
                  Condition.signal st.cond
                | Bqueue.Rejected -> ());
                a)
          in
          match admit with
          | Bqueue.Enqueued -> ()
          | Bqueue.Rejected ->
            Health.bump st.n rejected;
            Outlet.respond outlet
              (Request.response ~id:req.rq_id
                 ~reason:"queue full (reject-new)"
                 ~error:
                   (Err.rejected
                      "admission queue at capacity under the reject-new \
                       policy")
                 Request.Rejected)
          | Bqueue.Displaced old ->
            Health.bump st.n shed;
            (* a shed probe never executes: release the half-open slot
               so the breaker can probe again later *)
            if old.j_probe then
              Breaker.release_probe st.breaker (Request.input_key old.j_req);
            Outlet.respond old.j_outlet
              (Request.response ~id:old.j_req.Request.rq_id
                 ~reason:"displaced from a full queue (drop-oldest)"
                 ~error:
                   (Err.shed
                      "displaced by a newer request under the drop-oldest \
                       policy")
                 Request.Shed))))
  end

let make_state config =
  {
    cfg = config;
    mu = Mutex.create ();
    cond = Condition.create ();
    queue =
      Bqueue.create ~capacity:config.queue_capacity
        ~policy:config.queue_policy;
    draining = false;
    breaker =
      Breaker.create ~threshold:config.breaker_threshold
        ~reset_after:config.breaker_reset_after;
    cache =
      Option.map
        (fun dir -> Cache.create ?max_entries:config.cache_max_entries ~dir ())
        config.cache_dir;
    sess_mu = Mutex.create ();
    sessions = Hashtbl.create 4;
    copy_sessions = Hashtbl.create 4;
    n =
      Health.table
        (schema :: (if config.cache_dir = None then [] else [ cache_schema ]));
    memo_mu = Mutex.create ();
    prep_memo = Hashtbl.create 16;
    memo_order = Queue.create ();
    kill_input = Sys.getenv_opt "IPCP_SERVE_KILL_INPUT";
    stall_input = Sys.getenv_opt "IPCP_SERVE_STALL_INPUT";
    stall_ms =
      (match
         Option.bind (Sys.getenv_opt "IPCP_SERVE_STALL_MS") int_of_string_opt
       with
      | Some n when n > 0 -> n
      | _ -> 2000);
    cache_down_since = None;
  }

(* Pre-resolve every suite program in this domain: the registry's memo
   table is not synchronized, so the workers must only ever read it. *)
let prewarm_registry () =
  List.iter
    (fun e -> ignore (Ipcp_suite.Registry.program e))
    Ipcp_suite.Registry.entries

(* ---------------- client streams ---------------- *)

(* The terminal frame for a client stream that broke a framing defense:
   the over-long line ([max_line]), or a partial line outliving the read
   deadline (sockets only). *)
let refusal st (ending : Transport.Loop.ending) =
  let limit = st.cfg.max_line and deadline = st.cfg.read_timeout_ms in
  match ending with
  | Transport.Loop.Eof | Transport.Loop.Broken -> None
  | Transport.Loop.Oversize bytes ->
    Health.bump st.n req_oversize;
    Some
      (Request.response ~id:""
         ~reason:
           (Printf.sprintf "request line exceeds the %d byte cap (%d buffered)"
              limit bytes)
         ~error:
           (Err.oversize
              (Printf.sprintf
                 "request line of %d bytes exceeds the per-connection cap of \
                  %d"
                 bytes limit))
         Request.Invalid)
  | Transport.Loop.Timeout ->
    Health.bump st.n req_timeout;
    Some
      (Request.response ~id:""
         ~reason:
           (Printf.sprintf "read deadline (%d ms) expired with a partial \
                            request buffered"
              deadline)
         ~error:
           (Err.timed_out
              (Printf.sprintf
                 "no complete request line within %d ms of the first partial \
                  byte"
                 deadline))
         Request.Invalid)

(* Register one client stream — stdin, or an accepted socket — with the
   loop.  Its lines are admitted in arrival order under the shared
   sequence counter, or rejected once a stop was signalled; a refused
   stream owes one terminal frame for the refused line. *)
let add_client st loop ~seq ?out ?read_timeout_ms ?on_gone outlet fd =
  let on_line line =
    if Transport.Loop.stopping () then
      reject_drained line (fun r ->
          Outlet.owe outlet;
          Health.bump st.n requests;
          Health.bump st.n rejected;
          Outlet.respond outlet r)
    else begin
      handle_line st ~outlet ~seq:!seq line;
      incr seq
    end
  in
  let on_end ending =
    match refusal st ending with
    | None -> ()
    | Some r ->
      Outlet.owe outlet;
      Health.bump st.n requests;
      Health.bump st.n invalid;
      Outlet.respond outlet r
  in
  Transport.Loop.add loop ~max_line:st.cfg.max_line ?out ?read_timeout_ms
    ?on_gone ~on_line ~on_end fd

(* Both modes: the worker pool runs while [feed] drives the event loop;
   then the pool drains, buffered write tails get one bounded flush,
   and the settled health snapshot is written — after the drain barrier
   the counters are final, so it is deterministic for a deterministic
   request stream, unlike in-stream health answers that race the
   workers. *)
let serving config feed =
  let st = make_state { config with workers = max 1 config.workers } in
  prewarm_registry ();
  Transport.Loop.with_signals @@ fun () ->
  let workers =
    Array.init st.cfg.workers (fun slot -> Domain.spawn (worker st slot))
  in
  let loop = Transport.Loop.create () in
  feed st loop;
  Mutex.protect st.mu (fun () ->
      st.draining <- true;
      Condition.broadcast st.cond);
  Array.iter Domain.join workers;
  Transport.Loop.flush loop ~within:2.0;
  Option.iter (fun out -> ignore (snapshot ~out st)) st.cfg.health_out

(* ---------------- run (stdio mode) ---------------- *)

(* Stdin is one client stream of the loop.  Responses go through the
   channel outlet, never an outbuf: stdout may share its file
   description with the shell and must not be switched to
   [O_NONBLOCK]. *)
let run ?(config = default_config) ~input ~output () =
  let out = Outlet.channel output in
  serving config (fun st loop ->
      let c = add_client st loop ~seq:(ref 0) out input in
      Transport.Loop.run loop ~tick:ignore ~until:(fun () ->
          Transport.Loop.stopping () || not (Transport.Loop.reading c));
      (* stop wins over unread input: lines already readable were
         submitted, so they get typed drain rejections, not silence *)
      Transport.Loop.finish loop c);
  Outlet.close out

(* ---------------- run (socket listener mode) ---------------- *)

(* The listening socket and every accepted connection are streams of
   the same loop, each connection with its own outlet.  The loop
   enforces [max_line] and [read_timeout_ms]; a connection closes only
   once its conservation account is settled.  Runs until SIGTERM/SIGINT,
   then answers typed drain rejections for lines already on the wire.
   Always returns 0: a vanished client is that client's problem (counted
   and logged E-LOAD-GONE), never the server's. *)
let run_listen ?(config = default_config) ~addr () =
  let listener = Transport.listen addr in
  let clients = ref [] in
  serving config (fun st loop ->
      let seq = ref 0 in
      Transport.Loop.listen loop listener ~on_accept:(fun fd ->
          (* a peer that stops reading must stall its own responses, not
             a worker domain: the outbuf makes every response write
             nonblocking *)
          let ob = Transport.Outbuf.create fd in
          let o = Outlet.make (`Sock (ob, st.n)) in
          Health.bump st.n conns_accepted;
          let c =
            add_client st loop ~seq ~out:ob
              ~read_timeout_ms:st.cfg.read_timeout_ms
              ~on_gone:(fun () -> Outlet.tail_gone o)
              o fd
          in
          clients := (c, o) :: !clients);
      (* close a connection only when the peer finished submitting (or
         died), every owed terminal response is answered, and its bytes
         have left the outbuf *)
      let settled (c, (o : Outlet.t)) =
        Mutex.protect o.mu (fun () ->
            ((not (Transport.Loop.reading c)) || o.dead)
            && o.pending = 0
            && not (Transport.Loop.pending c))
      in
      let sweep () =
        let closing, open_ = List.partition settled !clients in
        clients := open_;
        List.iter
          (fun (c, _) ->
            Transport.Loop.remove loop c;
            try Unix.close (Transport.Loop.fd c) with Unix.Unix_error _ -> ())
          closing
      in
      Transport.Loop.run loop ~tick:sweep ~until:Transport.Loop.stopping;
      List.iter (fun (c, _) -> Transport.Loop.finish loop c) !clients);
  List.iter
    (fun (c, _) ->
      try Unix.close (Transport.Loop.fd c) with Unix.Unix_error _ -> ())
    !clients;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  Transport.unlink_addr addr;
  0
