module G = Geometry

type t = Bent | Dense | Mid | Iso

let name = function
  | Bent -> "bent"
  | Dense -> "dense"
  | Mid -> "mid"
  | Iso -> "iso"

let all = [ Bent; Dense; Mid; Iso ]

let classify chip (g : Layout.Chip.gate_ref) =
  if g.Layout.Chip.bent then Bent
  else begin
    let tech = Layout.Chip.tech chip in
    let pitch = tech.Layout.Tech.poly_pitch in
    let r = g.Layout.Chip.gate in
    let probe = G.Rect.inflate r (2 * pitch) in
    let centre = G.Rect.center r in
    let shapes = Layout.Chip.shapes_in chip Layout.Layer.Poly probe in
    let min_space =
      List.fold_left
        (fun acc p ->
          let bb = G.Polygon.bbox p in
          if G.Rect.contains_point bb centre then acc (* own stripe *)
          else
            let dx, dy = G.Rect.separation r bb in
            (* Only horizontally adjacent parallel poly matters for the
               gate CD; shapes vertically offset (straps of neighbours)
               still count through their horizontal gap when the
               vertical projections overlap. *)
            if dy = 0 && dx > 0 then min acc dx else acc)
        max_int shapes
    in
    if min_space <= pitch then Dense
    else if min_space <= 2 * pitch then Mid
    else Iso
  end
