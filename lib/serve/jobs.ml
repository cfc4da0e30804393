open Ipcp_frontend
open Ipcp_core

let exit_input = 3
let exit_internal = 4

type outcome = { out : string; err : string; code : int }

(* Render through buffer formatters.  A fresh formatter shares
   std_formatter's default geometry (margin, max indent), so everything
   breaks lines exactly as a direct CLI print would. *)
let render f =
  let out_buf = Buffer.create 1024 and err_buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer out_buf in
  let err = Format.formatter_of_buffer err_buf in
  let code = f out err in
  Format.pp_print_flush out ();
  Format.pp_print_flush err ();
  { out = Buffer.contents out_buf; err = Buffer.contents err_buf; code }

(* ---------------- load ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  let fail pp_err =
    Error (render (fun _out err -> pp_err err; exit_input))
  in
  match read_file path with
  | exception Sys_error m -> fail (fun err -> Fmt.pf err "error: %s@." m)
  | src -> (
    match Sema.check ~file:path src with
    | Ok prog -> Ok (src, prog)
    | Error diags ->
      fail (fun err ->
          Fmt.pf err "%a%a@." Ipcp_support.Diagnostics.pp diags
            Ipcp_support.Diagnostics.pp_summary diags))

(* ---------------- certification ---------------- *)

(* One certification verdict; the violation report goes to stderr, like
   all error reporting.  The certify.* counter quadruple always travels
   together — an in-band check counts as one sampled check at rate 1.0
   with no cache involved — so every profile that mentions certification
   carries the same schema the serve health snapshot exports. *)
let pp_certification out err label (r : Ipcp_certify.Certify.report) =
  let module Telemetry = Ipcp_telemetry.Telemetry in
  Telemetry.add "certify.sampled" 1;
  Telemetry.add "certify.cache_hits_checked" 0;
  let passed = Ipcp_certify.Certify.ok r in
  Telemetry.add "certify.passed" (if passed then 1 else 0);
  Telemetry.add "certify.failed" (if passed then 0 else 1);
  if Ipcp_certify.Certify.ok r then begin
    Fmt.pf out "--- certified [%s]: %a@." label Ipcp_certify.Certify.pp_report r;
    0
  end
  else begin
    Fmt.pf err "certification failed [%s]:@.%a@." label
      Ipcp_support.Diagnostics.pp
      (Ipcp_certify.Certify.to_diagnostics r);
    exit_internal
  end

(* ---------------- analyze ---------------- *)

let pp_degraded ppf reasons =
  List.iter
    (fun r ->
      Fmt.pf ppf
        "--- degraded: %a (results remain sound; raise --max-steps / \
         --deadline-ms for full precision)@."
        Ipcp_support.Budget.pp_reason r)
    reasons

(* The job bodies for one analysis.  [Of (Const_analysis)] is included
   at the historical toplevel names; [Copy] serves the [--analysis copy]
   paths with the same renderers. *)
module Of (A : Ipcp_analysis.Analysis_sig.S) = struct
  module D = Driver.Make (A)
  module Sub = Substitute.Make (A)
  module Comp = Complete.Make (A)
  module C = Ipcp_certify.Certify.Make (A)
  module T = Ipcp_suite.Tables.Make (A)

  let certification ?fuel ?input ~label t =
    render (fun out err ->
        pp_certification out err label (C.check ?fuel ?input t))

  let analyze ?(verbose = false) ?(complete = false) ?(certify = false)
      ?substitute_out ?solved ~config ~jobs prog =
    render @@ fun ppf err ->
    let t, degraded, substitution =
      match solved with
      | Some t ->
        (* a precomputed result (the incremental path) renders through the
           same pipeline below, so its frames stay byte-identical to a
           from-scratch analyze *)
        (t, Driver.degraded t, None)
      | None ->
        if complete then
          (* complete propagation substituted its final program from the
             last round's SCCP already *)
          let o = Comp.run ~config prog in
          (o.Complete.final, o.Complete.degraded, Some o.Complete.substitution)
        else
          let t = D.analyze config prog in
          (t, Driver.degraded t, None)
    in
    if verbose then begin
      Fmt.pf ppf "--- call graph@.%a@." Callgraph.pp t.Driver.cg;
      Fmt.pf ppf "--- mod/ref@.%a@." Modref.pp t.Driver.modref
    end;
    Fmt.pf ppf "--- configuration: %a@." Config.pp config;
    Fmt.pf ppf "--- CONSTANTS sets@.%a" D.pp_constants t;
    let prog', stats =
      match substitution with Some s -> s | None -> Sub.apply ~jobs t
    in
    Fmt.pf ppf "--- constants substituted: %d@." stats.Substitute.total;
    List.iter
      (fun (p, n) -> if n > 0 then Fmt.pf ppf "      %-16s %d@." p n)
      stats.Substitute.by_proc;
    pp_degraded ppf degraded;
    if stats.Substitute.sccp_degraded <> [] then
      Fmt.pf ppf
        "--- degraded (sccp budget, no substitutions): %a@."
        Fmt.(list ~sep:(any " ") string)
        stats.Substitute.sccp_degraded;
    (match substitute_out with
    | Some out ->
      let oc = open_out out in
      output_string oc (Pretty.program_to_string prog');
      close_out oc;
      Fmt.pf ppf "--- substituted source written to %s@." out
    | None -> ());
    if certify then
      pp_certification ppf err (Config.to_string config) (C.check t)
    else 0

  (* The [tables] job: certification checks each program's
     [Config.default] result as the tables solved it; the verdicts print
     after the tables, in program order. *)
  let tables ~certify ?max_steps ?deadline_ms ~jobs () =
    render @@ fun ppf err ->
    let check t = if certify then Some (C.check t) else None in
    let programs = T.programs ~jobs ?max_steps ?deadline_ms ~check () in
    Fmt.pf ppf "%a@." Ipcp_suite.Tables.pp programs;
    List.fold_left
      (fun acc (p : _ Ipcp_suite.Tables.program) ->
        match p.checked with
        | None -> acc
        | Some r ->
          let c = pp_certification ppf err p.t2.t2_name r in
          if c <> 0 then c else acc)
      0 programs
end

include Of (Ipcp_analysis.Const_analysis)
module Copy = Of (Ipcp_analysis.Copy_analysis)

(* ---------------- tables ---------------- *)

let tables ?(analysis = `Const) ?(certify = false) ?max_steps ?deadline_ms
    ~jobs () =
  match analysis with
  | `Const -> tables ~certify ?max_steps ?deadline_ms ~jobs ()
  | `Copy -> Copy.tables ~certify ?max_steps ?deadline_ms ~jobs ()
