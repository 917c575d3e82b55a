module G = Geometry

type t = {
  at : G.Point.t;
  severity : float;
  condition : Litho.Condition.t;
}

(* Severity of a feature that did not print at all. *)
let missing_severity = 99.0

let on_chip model orc_config chip ~mask =
  let drawn = Layout.Chip.flatten_layer chip Layout.Layer.Poly in
  match Layout.Chip.die chip with
  | None -> []
  | Some window ->
      let report = Opc.Orc.verify model orc_config ~mask ~drawn ~window in
      List.map
        (fun (v : Opc.Orc.violation) ->
          {
            at = v.Opc.Orc.at;
            severity =
              (match v.Opc.Orc.kind with
              | Opc.Orc.Not_printed -> missing_severity
              | Opc.Orc.Epe_over -> Float.abs v.Opc.Orc.epe);
            condition = v.Opc.Orc.condition;
          })
        report.Opc.Orc.violations

let prune ~radius hotspots =
  let sorted =
    List.sort (fun a b -> Float.compare b.severity a.severity) hotspots
  in
  let kept = ref [] in
  List.iter
    (fun h ->
      let close k = G.Point.manhattan h.at k.at <= radius in
      if not (List.exists close !kept) then kept := h :: !kept)
    sorted;
  List.rev !kept
