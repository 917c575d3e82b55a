module G = Geometry

type instance = { iname : string; cell : Cell.t; placement : G.Transform.t }

type gate_ref = {
  inst : string;
  cell_name : string;
  tname : string;
  kind : Cell.mos_kind;
  gate : G.Rect.t;
  drawn_l : int;
  drawn_w : int;
  bent : bool;
}

type t = {
  tech : Tech.t;
  mutable instances : instance list; (* reverse insertion order *)
  names : (string, unit) Hashtbl.t;
  indices : (Layer.t, G.Polygon.t G.Spatial.t) Hashtbl.t;
}

let create tech = { tech; instances = []; names = Hashtbl.create 64; indices = Hashtbl.create 8 }

let tech t = t.tech

let row_orientation (o : G.Transform.orientation) =
  match o with
  | G.Transform.R0 | G.Transform.MX -> true
  | G.Transform.R90 | G.Transform.R180 | G.Transform.R270 | G.Transform.MY
  | G.Transform.MXR90 | G.Transform.MYR90 ->
      false

let add t ~iname ~cell placement =
  if Hashtbl.mem t.names iname then
    invalid_arg (Printf.sprintf "Chip.add: duplicate instance %s" iname);
  if not (row_orientation placement.G.Transform.orient) then
    invalid_arg "Chip.add: only R0/MX placements are allowed";
  Hashtbl.add t.names iname ();
  Hashtbl.reset t.indices;
  t.instances <- { iname; cell; placement } :: t.instances

let instances t = List.rev t.instances

let move t ~inst ~dx ~dy =
  let moved = create t.tech in
  List.iter
    (fun i ->
      let placement =
        if String.equal i.iname inst then
          {
            i.placement with
            G.Transform.offset =
              G.Point.add i.placement.G.Transform.offset (G.Point.make dx dy);
          }
        else i.placement
      in
      add moved ~iname:i.iname ~cell:i.cell placement)
    (instances t);
  moved

let num_instances t = List.length t.instances

let find_instance t name =
  List.find_opt (fun i -> String.equal i.iname name) t.instances

let die t =
  match t.instances with
  | [] -> None
  | insts ->
      let boxes =
        List.map (fun i -> G.Transform.apply_rect i.placement (Cell.bbox i.cell)) insts
      in
      Some (G.Rect.hull_of_list boxes)

let flatten_layer t layer =
  List.concat_map
    (fun i ->
      List.map (G.Transform.apply_polygon i.placement) (Cell.shapes_on i.cell layer))
    t.instances

let layer_index t layer =
  match Hashtbl.find_opt t.indices layer with
  | Some idx -> idx
  | None ->
      let bucket = max 1000 (t.tech.Tech.poly_pitch * 8) in
      let idx = G.Spatial.create ~bucket in
      List.iter (fun p -> G.Spatial.insert idx (G.Polygon.bbox p) p) (flatten_layer t layer);
      Hashtbl.add t.indices layer idx;
      idx

let shapes_in t layer window =
  List.map snd (G.Spatial.query (layer_index t layer) window)

let gates t =
  List.concat_map
    (fun i ->
      List.map
        (fun (tr : Cell.transistor) ->
          {
            inst = i.iname;
            cell_name = i.cell.Cell.cname;
            tname = tr.Cell.tname;
            kind = tr.Cell.kind;
            gate = G.Transform.apply_rect i.placement tr.Cell.gate;
            drawn_l = tr.Cell.drawn_l;
            drawn_w = tr.Cell.drawn_w;
            bent = tr.Cell.bent;
          })
        i.cell.Cell.transistors)
    (instances t)

let gate_key g = g.inst ^ "/" ^ g.tname

let pp ppf t =
  let ngates = List.length (gates t) in
  Format.fprintf ppf "chip(%s): %d instances, %d gates" t.tech.Tech.name
    (num_instances t) ngates
