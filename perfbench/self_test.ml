(* Proof that each output check is live: every check passes on a real
   output and fails on a doctored one, so a run fed the doctored output
   reports a failed_ratio above 0. *)

module Jobs = Ipcp_serve.Jobs
module Request = Ipcp_serve.Request

(* The golden with the first cell of its Table 2 changed. *)
let doctor_golden golden =
  let row = Util.find golden ~from:(Util.find golden ~from:0 "Table 2:") "\nadm " in
  let i = ref row in
  while not (golden.[!i] >= '0' && golden.[!i] <= '9') do
    incr i
  done;
  let b = Bytes.of_string golden in
  Bytes.set b !i (if golden.[!i] = '9' then '8' else Char.chr (Char.code golden.[!i] + 1));
  Bytes.to_string b

let report name ~real ~doctored =
  let failed = List.length (List.filter not [ real; doctored ]) in
  let live = real && not doctored in
  Printf.printf "%-40s real=%s doctored=%s failed_ratio=%.2f (%d of 2) %s\n" name
    (if real then "pass" else "FAIL") (if doctored then "pass" else "FAIL")
    (float_of_int failed /. 2.) failed (if live then "live" else "NOT LIVE");
  live

let suite () =
  let golden = Util.read_file Suite_w.golden_path in
  let o = Suite_w.op ~jobs:1 () in
  report "suite: golden with one changed cell"
    ~real:(Suite_w.check ~golden o)
    ~doctored:(Suite_w.check ~golden:(doctor_golden golden) o)

let serve () =
  Util.with_tmp_dir @@ fun dir ->
  let srv =
    Serve_w.start_server ~health_path:(Filename.concat dir "health.json") ~workers:1 ~seed:1 ()
  in
  let req =
    { Serve_w.cls = Analyze; suite = "doduc"; config = Ipcp_core.Config.default; session = "";
      version = 0 }
  in
  let line = Serve_w.to_line ~dir ~id:"t1" req in
  Serve_w.send srv line;
  let frame = Serve_w.recv srv in
  Serve_w.stop_server srv;
  let expect = Serve_w.expected ~dir in
  let sample s_frame = { Serve_w.s_req = req; s_line = line; s_ms = 0.; s_done = 0L; s_frame } in
  report "serve: frame with altered stdout"
    ~real:(Serve_w.frame_ok ~expect (sample frame))
    ~doctored:
      (Serve_w.frame_ok ~expect
         (sample
            { frame with Request.rs_stdout = Option.map (fun s -> s ^ "\n") frame.Request.rs_stdout }))

let large () =
  let prog = Ipcp_frontend.Sema.parse_and_resolve (Large_w.chain 50 7) in
  let r =
    Ipcp_certify.Certify.check ~fuel:Large_w.cert_fuel
      (Ipcp_core.Driver.analyze Ipcp_core.Config.default prog)
  in
  report "large: certification not witnessed"
    ~real:(Large_w.cert_ok r)
    ~doctored:(Large_w.cert_ok { r with Ipcp_certify.Certify.exec_checked = false })

let run () =
  let suite = suite () in
  let serve = serve () in
  let large = large () in
  if suite && serve && large then 0 else 1
