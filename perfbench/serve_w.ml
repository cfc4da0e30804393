(* Workload [serve]: [nproc] closed-loop callers, each waiting for its
   reply, drive the stdio server ([Server.run]) running in this process
   over a pipe pair.  About 2/3 of requests are reads (analyze of a
   suite program under a rotating configuration: prepare-memo hit,
   solve, render) and 1/3 are writes (analyze-delta stepping a session
   one edit of a generated program at a time: incremental update); a
   few are certify requests.  It is the only workload that runs through
   the serving layer and the incremental analysis.

   The timed run serves without an on-disk artifact cache.  With one,
   every delta rewrites and fsyncs all of its session's blobs, so its
   latency follows the disk: on a shared 2-vCPU VM the median time of
   150 fsynced writes drifted between 35 and 58 ms from one 10 s window
   to the next, far outside any bound.  The traced run serves with the
   cache in a temporary directory, so its health counters and the
   direct replay show what the cache costs per request. *)

open Ipcp_core
module Jobs = Ipcp_serve.Jobs
module Request = Ipcp_serve.Request
module Server = Ipcp_serve.Server
module Cache = Ipcp_serve.Cache
module Registry = Ipcp_suite.Registry
module Json = Ipcp_telemetry.Json
module Incr = Ipcp_incr.Incr

let delta_procs = 150
let edits = 12
let certify_sample = 0.05

type cls = Analyze | Delta | Certify

let cls_name = function Analyze -> "analyze" | Delta -> "delta" | Certify -> "certify"

(* A request of the mix, before it is given an id. *)
type req = {
  cls : cls;
  suite : string;  (** analyze / certify target *)
  config : Config.t;
  session : string;
  version : int;  (** analyze-delta: index into the edit sequence *)
}

let configs =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun return_jfs ->
          List.map (fun use_mod -> Config.make ~kind ~return_jfs ~use_mod ()) [ true; false ])
        [ true; false ])
    Jump_function.all_kinds

let version_path dir v = Filename.concat dir (Printf.sprintf "v%02d.f" v)

let to_line ~dir ~id r =
  let cfg = r.config in
  let fields =
    match r.cls with
    | Analyze ->
      [
        ("op", Json.Str "analyze");
        ("suite", Json.Str r.suite);
        ("jf", Json.Str (Jump_function.kind_name cfg.Config.kind));
        ("no_return_jfs", Json.Bool (not cfg.Config.return_jfs));
        ("no_mod", Json.Bool (not cfg.Config.use_mod));
      ]
    | Delta ->
      [
        ("op", Json.Str "analyze-delta");
        ("session", Json.Str r.session);
        ("file", Json.Str (version_path dir r.version));
      ]
    | Certify -> [ ("op", Json.Str "certify"); ("suite", Json.Str r.suite) ]
  in
  Json.to_string (Json.Obj (("id", Json.Str id) :: fields))

(* The configuration the server derives from a request line. *)
let config_of_line line = Request.config_of (Result.get_ok (Request.of_line line))

(* ---- the in-process server and its client end ---- *)

type server = {
  thread : Thread.t;
  req_w : Unix.file_descr;
  resp : in_channel;
  health_path : string;
}

let start_server ?cache_dir ~health_path ~workers ~seed () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let config =
    {
      Server.default_config with
      workers;
      cache_dir;
      certify_sample;
      seed;
      health_out = Some health_path;
    }
  in
  let thread =
    Thread.create
      (fun () ->
        let oc = Unix.out_channel_of_descr resp_w in
        Fun.protect
          ~finally:(fun () ->
            close_out_noerr oc;
            Unix.close req_r)
          (fun () -> ignore (Server.run ~config ~input:req_r ~output:oc ())))
      ()
  in
  { thread; req_w; resp = Unix.in_channel_of_descr resp_r; health_path }

let send srv line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write srv.req_w b off (Bytes.length b - off))
  in
  go 0

let recv srv =
  match Request.response_of_line (input_line srv.resp) with
  | Ok r -> r
  | Error e -> failwith ("unparsable response frame: " ^ e)

(* End of input: the server drains, writes its settled health snapshot
   and returns; its thread is joined before this returns. *)
let stop_server srv =
  Unix.close srv.req_w;
  (try
     while true do
       ignore (input_line srv.resp)
     done
   with End_of_file -> ());
  Thread.join srv.thread;
  close_in_noerr srv.resp

let health srv =
  send srv {|{"id":"health","op":"health"}|};
  let r = recv srv in
  Option.value ~default:Json.Null r.Request.rs_health

let counter doc name =
  Option.value ~default:0 (Option.bind (Json.path [ "counters"; name ] doc) Json.to_int_opt)

(* ---- the closed loop ---- *)

type sample = {
  s_req : req;
  s_line : string;
  s_ms : float;
  s_done : int64;
  s_frame : Request.response;
}

(* Keep [callers] requests in flight until [until] returns true, each
   caller sending its next request only after its reply arrived. *)
let closed_loop srv ~dir ~callers ~next ~until =
  let inflight = Hashtbl.create 8 in
  let seq = ref 0 in
  let issue caller =
    let r = next caller in
    incr seq;
    let id = Printf.sprintf "c%d-%d" caller !seq in
    let line = to_line ~dir ~id r in
    Hashtbl.replace inflight id (caller, r, line, Util.now_ns ());
    send srv line
  in
  for caller = 0 to callers - 1 do
    issue caller
  done;
  let samples = ref [] in
  while Hashtbl.length inflight > 0 do
    let frame = recv srv in
    let t1 = Util.now_ns () in
    match Hashtbl.find_opt inflight frame.Request.rs_id with
    | None -> failwith ("response to an unknown id " ^ frame.Request.rs_id)
    | Some (caller, r, line, t0) ->
      Hashtbl.remove inflight frame.Request.rs_id;
      samples :=
        { s_req = r; s_line = line; s_ms = Util.ms_between t0 t1; s_done = t1; s_frame = frame }
        :: !samples;
      if not (until ()) then issue caller
  done;
  List.rev !samples

(* The seeded request mix.  Caller [k] steps its own sessions, so a
   session's versions arrive in order; each step is one edit, walking
   the edit sequence forward and back. *)
let mix ~seed ~callers =
  let rng = Random.State.make [| seed |] in
  let names = Array.of_list Registry.names in
  let cfgs = Array.of_list configs in
  let pos = Array.make (2 * callers) 0 and dir = Array.make (2 * callers) 1 in
  let turn = Array.make callers 0 in
  fun caller ->
    let u = Random.State.float rng 1. in
    let suite = names.(Random.State.int rng (Array.length names)) in
    if u < 0.03 then { cls = Certify; suite; config = Config.default; session = ""; version = 0 }
    else if u < 0.36 then begin
      let s = caller + (callers * (turn.(caller) land 1)) in
      turn.(caller) <- turn.(caller) + 1;
      if pos.(s) + dir.(s) < 0 || pos.(s) + dir.(s) > edits then dir.(s) <- - dir.(s);
      pos.(s) <- pos.(s) + dir.(s);
      { cls = Delta; suite = ""; config = Config.default; session = Printf.sprintf "s%d" s;
        version = pos.(s) }
    end
    else
      { cls = Analyze; suite; config = cfgs.(Random.State.int rng (Array.length cfgs));
        session = ""; version = 0 }

(* Every read the mix can send, and version 0 of every session: sent
   during set-up so the prepare memo and the sessions are warm. *)
let warm_requests ~callers =
  List.concat_map
    (fun suite ->
      List.map (fun config -> { cls = Analyze; suite; config; session = ""; version = 0 }) configs)
    Registry.names
  @ List.init (2 * callers) (fun s ->
        { cls = Delta; suite = ""; config = Config.default; session = Printf.sprintf "s%d" s;
          version = 0 })

(* ---- the direct renderings the frames are checked against ---- *)

let expected ~dir =
  let memo = Hashtbl.create 256 in
  fun r line ->
    let config = config_of_line line in
    let key = (r.cls, r.suite, Config.to_string config, r.version) in
    match Hashtbl.find_opt memo key with
    | Some o -> o
    | None ->
      let o =
        match r.cls with
        | Analyze ->
          let e = Option.get (Registry.find r.suite) in
          Jobs.analyze ~config ~jobs:1 (Registry.program e)
        | Delta -> (
          match Jobs.load (version_path dir r.version) with
          | Error o -> o
          | Ok (_, prog) -> Jobs.analyze ~config ~jobs:1 prog)
        | Certify ->
          let e = Option.get (Registry.find r.suite) in
          Jobs.certification
            ~label:(Fmt.str "%s, %s" r.suite (Config.to_string config))
            (Driver.solve config (Driver.prepare (Registry.program e)))
      in
      Hashtbl.replace memo key o;
      o

let frame_ok ~expect s =
  let f = s.s_frame and o = expect s.s_req s.s_line in
  f.Request.rs_status = Request.Ok_done
  && f.Request.rs_code = Some 0
  && f.Request.rs_stdout = Some o.Jobs.out

(* ---- set-up ---- *)

type state = {
  srv : server;
  dir : string;
  versions : string list;
}

let setup ~seed ~dir ~callers ~disk rep =
  let versions =
    Ipcp_suite.Workload.edits
      { Ipcp_suite.Workload.default_spec with
        seed = Util.sub_seed seed 1; num_procs = delta_procs; p_call = 0.1 }
      ~seed:(Util.sub_seed seed 2) ~n:edits
  in
  List.iteri (fun i v -> Util.write_file (version_path dir i) v) versions;
  let cache_dir =
    if disk then Some (Filename.concat dir (Printf.sprintf "cache-%d" rep)) else None
  in
  let srv =
    start_server ?cache_dir ~health_path:(Filename.concat dir "health.json")
      ~workers:callers ~seed ()
  in
  let warm = ref (warm_requests ~callers) in
  let next _ =
    match !warm with
    | r :: rest -> warm := rest; r
    | [] -> assert false
  in
  let samples =
    closed_loop srv ~dir ~callers:(min callers (List.length !warm)) ~next
      ~until:(fun () -> !warm = [])
  in
  List.iter
    (fun s ->
      if s.s_frame.Request.rs_status <> Request.Ok_done then
        failwith ("warm-up request failed: " ^ s.s_line))
    samples;
  { srv; dir; versions }

(* ---- direct replay of each request class, for the per-layer run ---- *)

type replay = {
  marshal_ms : float list;
  artifact_kb : float list;
  find_ms : float list;
  inc : Incr.stats list;
}

let replay st ~samples ~seconds =
  let payloads = Hashtbl.create 16 in
  let marshal_ms = ref [] and artifact_kb = ref [] in
  List.iter
    (fun (e : Registry.entry) ->
      let a = Driver.prepare (Registry.program e) in
      let t0 = Util.now_ns () in
      let p = Driver.artifacts_to_string a in
      marshal_ms := Util.ms_between t0 (Util.now_ns ()) :: !marshal_ms;
      artifact_kb := (float_of_int (String.length p) /. 1024.) :: !artifact_kb;
      Hashtbl.replace payloads e.name p)
    Registry.entries;
  let cache = Cache.create ~dir:(Filename.concat st.dir "replay-cache") () in
  let progs =
    Array.of_list (List.map Ipcp_frontend.Sema.parse_and_resolve st.versions)
  in
  let sess = ref (Incr.start Config.default progs.(0)) in
  let pos = ref 0 and step = ref 1 in
  let stored = ref [] and inc = ref [] in
  let analyze line =
    let rq = Trace.span "serve.request_parse" (fun () -> Request.of_line line) in
    let rq = Result.get_ok rq in
    let name = match rq.Request.rq_target with Some (Request.Suite n) -> n | _ -> assert false in
    let config = Request.config_of rq in
    let a =
      Trace.span "serve.unmarshal" (fun () ->
          Option.get (Driver.artifacts_of_string (Hashtbl.find payloads name)))
    in
    let t = Suite_w.traced_solve a config in
    Trace.span "serve.render" (fun () ->
        ignore (Jobs.analyze ~solved:t ~config ~jobs:1 (Driver.artifacts_prog a)))
  in
  let delta line =
    ignore (Trace.span "serve.request_parse" (fun () -> Request.of_line line));
    if !pos + !step < 0 || !pos + !step >= Array.length progs then step := - !step;
    pos := !pos + !step;
    let prog = progs.(!pos) in
    let s', stats = Trace.span "incr.update" (fun () -> Incr.update ~prev:!sess prog) in
    sess := s';
    inc := stats :: !inc;
    let manifest, blobs = Trace.span "incr.export" (fun () -> Incr.export s') in
    (* every blob, then the manifest, as the server persists a session *)
    Trace.span "serve.cache_store" (fun () ->
        List.iter
          (fun (hash, payload) ->
            let key = Cache.key ~source:("incr-proc\x00" ^ hash) in
            ignore (Cache.store_blob cache ~key payload);
            stored := key :: !stored)
          blobs;
        ignore (Cache.store_blob cache ~key:(Cache.key ~source:"incr-session\x00replay") manifest));
    Trace.span "serve.render" (fun () ->
        ignore (Jobs.analyze ~solved:(Incr.result s') ~config:Config.default ~jobs:1 prog))
  in
  let timed f =
    let t0 = Util.now_ns () in
    f ();
    Util.ms_between t0 (Util.now_ns ())
  in
  let untraced = Hashtbl.create 4 and traced = Hashtbl.create 4 in
  let add tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  let deadline = Int64.add (Util.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let rec go = function
    | [] -> ()
    | _ when Int64.compare (Util.now_ns ()) deadline >= 0 -> ()
    | s :: rest ->
      (match s.s_req.cls with
      | Analyze ->
        add untraced Analyze (timed (fun () -> analyze s.s_line));
        add traced Analyze (timed (fun () -> Trace.op (fun () -> analyze s.s_line)))
      | Delta ->
        add untraced Delta (timed (fun () -> delta s.s_line));
        add traced Delta (timed (fun () -> Trace.op (fun () -> delta s.s_line)))
      | Certify -> ());
      go rest
  in
  go samples;
  let find_ms =
    List.map
      (fun key -> timed (fun () -> ignore (Cache.find_blob cache ~key)))
      (List.filteri (fun i _ -> i < 200) !stored)
  in
  ( { marshal_ms = !marshal_ms; artifact_kb = !artifact_kb; find_ms; inc = !inc },
    (fun c -> Option.value ~default:[] (Hashtbl.find_opt untraced c)),
    fun c -> Option.value ~default:[] (Hashtbl.find_opt traced c) )

(* ---- the run ---- *)

let run ~seed ~seconds ~trace =
  Util.with_tmp_dir @@ fun dir ->
  let callers = Ipcp_engine.Engine.default_jobs () in
  let st, setup_times =
    Util.timed_setup ~reps:3
      ~teardown:(fun st -> stop_server st.srv)
      (setup ~seed ~dir ~callers ~disk:trace)
  in
  let served_s = if trace then seconds /. 2. else seconds in
  let h0 = health st.srv in
  let start = Util.now_ns () in
  let deadline = Int64.add start (Int64.of_float (served_s *. 1e9)) in
  let samples =
    closed_loop st.srv ~dir ~callers ~next:(mix ~seed:(Util.sub_seed seed 3) ~callers)
      ~until:(fun () -> Int64.compare (Util.now_ns ()) deadline >= 0)
  in
  let h1 = health st.srv in
  stop_server st.srv;
  let final = Json.of_string (Util.read_file st.srv.health_path) in
  let c = Util.new_checks () in
  let expect = expected ~dir in
  let failed =
    List.length
      (List.filter
         (fun s ->
           not
             (Util.check c (frame_ok ~expect s)
                (lazy (Printf.sprintf "frame differs from the direct rendering: %s" s.s_line))))
         samples)
  in
  let cert_failed =
    match final with Ok doc -> counter doc "serve.certification_failed" | Error _ -> -1
  in
  ignore
    (Util.check c (cert_failed = 0)
       (lazy (Printf.sprintf "serve.certification_failed = %d" cert_failed)));
  let failed = if cert_failed = 0 then failed else max failed 1 in
  let lat = List.map (fun s -> s.s_ms) samples in
  let n = List.length lat in
  let procs_of r =
    match r.cls with
    | Delta -> float_of_int (delta_procs + 1)
    | Analyze | Certify ->
      float_of_int
        (List.length (Registry.program (Option.get (Registry.find r.suite))).Ipcp_frontend.Prog.procs)
  in
  let done_ops = List.map (fun s -> (s.s_done, 1.)) samples in
  let done_procs = List.map (fun s -> (s.s_done, procs_of s.s_req)) samples in
  let rates = Util.windowed_rate ~start ~width:20 done_ops in
  let prates = Util.windowed_rate ~start ~width:20 done_procs in
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.s_req.cls <> Certify then
        Hashtbl.replace distinct
          (s.s_req.cls, s.s_req.suite, Config.to_string s.s_req.config, s.s_req.version)
          s)
    samples;
  let subs =
    Hashtbl.fold (fun _ s acc -> acc + Util.substituted (expect s.s_req s.s_line).Jobs.out) distinct 0
  in
  let of_cls cl = List.filter_map (fun s -> if s.s_req.cls = cl then Some s.s_ms else None) samples in
  let count cl = List.length (of_cls cl) in
  let d name = float_of_int (counter h1 name - counter h0 name) in
  let metrics =
    if not trace then
      Util.
        [
          metric ~n:(List.length setup_times) "setup_s" "s" (median setup_times);
          metric ~n:(List.length rates) "ops_per_s" "1/s" (median rates);
          metric ~n "op_ms_p50" "ms" (median lat);
          metric ~n "op_ms_p90" "ms" (quantile lat 0.9);
          metric ~n:(List.length prates) "procs_per_s" "1/s" (median prates);
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
          metric ~n:(Hashtbl.length distinct) "constants_substituted" "count" (float_of_int subs);
        ]
    else begin
      let rp, untraced, traced = replay st ~samples ~seconds:(seconds /. 2.) in
      let s = Trace.summarize () in
      let loop cl = Util.median (of_cls cl) -. Util.median (untraced cl) in
      let inc = rp.inc in
      let sum_f f = float_of_int (Util.isum (List.map f inc)) in
      let both f = Util.fsum (f Analyze) +. Util.fsum (f Delta) in
      let deltas = d "serve.delta_updates" +. d "serve.delta_fresh" in
      Layers.common s ~n:s.Trace.ops
      @ Util.
          [
            metric "incr.update_ms" "ms" (s.per_call_ms "incr.update");
            metric "incr.export_ms" "ms" (s.per_call_ms "incr.export");
            metric ~n:(List.length inc) "incr.cone_size" "count"
              (ratio (sum_f (fun (i : Incr.stats) -> i.cone_size)) (float_of_int (List.length inc)));
            metric ~base:(Printf.sprintf "%.0f procs" (sum_f (fun i -> i.total_procs)))
              "incr.reuse_ratio" "ratio"
              (ratio (sum_f (fun i -> i.procs_reused)) (sum_f (fun i -> i.total_procs)));
            metric "incr.full_resolves" "count"
              (float_of_int (List.length (List.filter (fun (i : Incr.stats) -> i.full_resolve) inc)));
            metric "serve.request_parse_us" "us" (1e3 *. s.per_call_ms "serve.request_parse");
            metric "serve.marshal_ms" "ms" (mean rp.marshal_ms);
            metric "serve.unmarshal_ms" "ms" (s.per_call_ms "serve.unmarshal");
            metric "serve.artifact_kb" "KB" (mean rp.artifact_kb);
            metric "serve.cache_store_ms" "ms" (s.per_call_ms "serve.cache_store");
            metric ~n:(List.length rp.find_ms) "serve.cache_find_ms" "ms" (mean rp.find_ms);
            metric "serve.render_ms" "ms" (s.per_call_ms "serve.render");
            metric ~n:(count Analyze) "serve.loop_ms.analyze" "ms" (loop Analyze);
            metric ~n:(count Delta) "serve.loop_ms.delta" "ms" (loop Delta);
            metric "serve.cache_stores_per_delta" "count" (ratio (d "serve.cache_stores") deltas);
            metric ~base:(Printf.sprintf "%d analyze+certify requests" (count Analyze + count Certify))
              "serve.prepare_memo_hit_ratio" "ratio"
              (ratio (d "serve.prepare_memo_hits") (float_of_int (count Analyze + count Certify)));
            metric ~base:(Printf.sprintf "%.0f lookups" (d "serve.cache_hits" +. d "serve.cache_misses"))
              "serve.cache_hit_ratio" "ratio"
              (ratio (d "serve.cache_hits") (d "serve.cache_hits" +. d "serve.cache_misses"));
            metric "serve.certified" "count" (d "certify.passed");
            metric ~n:s.Trace.ops ~base:(Printf.sprintf "%.3f ms untraced" (both untraced))
              "trace.overhead_ratio" "ratio"
              (ratio (both traced) (both untraced));
          ]
    end
  in
  {
    Util.attempted = n;
    failed;
    metrics;
    extra =
      [
        ("requests", Json.Int n);
        ( "by_class",
          Json.Obj
            (List.map
               (fun cl ->
                 ( cls_name cl,
                   Json.Obj
                     [
                       ("n", Json.Int (count cl));
                       ("p50_ms", Json.Float (if count cl = 0 then 0. else Util.median (of_cls cl)));
                     ] ))
               [ Analyze; Delta; Certify ]) );
        ("callers", Json.Int callers);
        ("certify_sample", Json.Float certify_sample);
      ];
    failures = c.msgs;
  }
