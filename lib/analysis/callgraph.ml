open Cubicle

type edge = { caller : string; callee : string; sym : string }

let rec stmt_calls acc (s : Iface.stmt) =
  match s with
  | Iface.Call { sym; _ } -> `Call sym :: acc
  | Iface.Direct_call { sym } -> `Direct sym :: acc
  | Iface.Branch arms -> List.fold_left (List.fold_left stmt_calls) acc arms
  | Iface.Loop body -> List.fold_left stmt_calls acc body
  | _ -> acc

let decl_calls (fd : Iface.fundecl) =
  List.rev (List.fold_left stmt_calls [] fd.Iface.fd_body)

let edges (p : Ir.program) =
  List.concat_map
    (fun (c : Ir.comp) ->
      List.concat_map
        (fun fd ->
          List.filter_map
            (fun call ->
              let sym = match call with `Call s | `Direct s -> s in
              match Ir.owner_of p sym with
              | Some o when o.Ir.name <> c.Ir.name ->
                  Some { caller = c.Ir.name; callee = o.Ir.name; sym }
              | _ -> None)
            (decl_calls fd))
        c.Ir.iface)
    p.Ir.comps

(* Trampoline completeness (paper §5.5): every cross-cubicle edge into
   an isolated or trusted component must resolve to an installed thunk,
   and isolated callers additionally need their guard entry — the only
   legal way into a thunk under the exec-follows-access modification.
   Direct calls bypassing the symbol table are flagged unconditionally:
   they are exactly the CFI escape hatch the trampolines exist to
   close. *)
let check (p : Ir.program) =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  List.iter
    (fun (c : Ir.comp) ->
      List.iter
        (fun fd ->
          let here = Printf.sprintf "%s.%s" c.Ir.name fd.Iface.fd_sym in
          List.iter
            (function
              | `Direct sym ->
                  add
                    (Report.make ~pass:"trampoline" ~severity:Report.Critical
                       ~plane:Report.Static ~component:c.Ir.name
                       ~detail:
                         (Printf.sprintf "%s calls %s directly, bypassing the trampoline"
                            here sym)
                       ~key:(Printf.sprintf "trampoline:direct:%s:%s" here sym))
              | `Call sym -> (
                  match Ir.owner_of p sym with
                  | None when p.Ir.has_thunk sym ->
                      (* its exporter was torn down; the thunk, and any
                         guard entry for it, stay for a respawn *)
                      ()
                  | None ->
                      add
                        (Report.make ~pass:"trampoline" ~severity:Report.High
                           ~plane:Report.Static ~component:c.Ir.name
                           ~detail:
                             (Printf.sprintf "%s calls unresolved symbol %s" here sym)
                           ~key:(Printf.sprintf "trampoline:unresolved:%s:%s" here sym))
                  | Some o when o.Ir.name = c.Ir.name -> ()
                  | Some o -> (
                      match o.Ir.kind with
                      | Types.Shared -> ()
                      | Types.Isolated | Types.Trusted ->
                          if not (p.Ir.has_thunk sym) then
                            add
                              (Report.make ~pass:"trampoline" ~severity:Report.Critical
                                 ~plane:Report.Static ~component:c.Ir.name
                                 ~detail:
                                   (Printf.sprintf
                                      "%s -> %s.%s has no trampoline thunk installed" here
                                      o.Ir.name sym)
                                 ~key:(Printf.sprintf "trampoline:no-thunk:%s:%s" here sym))
                          else if
                            c.Ir.kind = Types.Isolated && not (p.Ir.has_guard c.Ir.cid sym)
                          then
                            add
                              (Report.make ~pass:"trampoline" ~severity:Report.High
                                 ~plane:Report.Static ~component:c.Ir.name
                                 ~detail:
                                   (Printf.sprintf
                                      "%s -> %s.%s has a thunk but no guard entry for the \
                                       caller"
                                      here o.Ir.name sym)
                                 ~key:(Printf.sprintf "trampoline:no-guard:%s:%s" here sym)))))
            (decl_calls fd))
        c.Ir.iface)
    p.Ir.comps;
  Report.dedup (List.rev !findings)
