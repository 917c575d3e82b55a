type shape = { layer : Layer.t; poly : Geometry.Polygon.t }

type mos_kind = Nmos | Pmos

type transistor = {
  tname : string;
  kind : mos_kind;
  gate : Geometry.Rect.t;
  drawn_l : int;
  drawn_w : int;
  bent : bool;
}

type t = {
  cname : string;
  width : int;
  height : int;
  shapes : shape list;
  transistors : transistor list;
  pins : (string * Layer.t * Geometry.Rect.t) list;
}

let make ~cname ~width ~height ~shapes ~transistors ~pins =
  if width <= 0 || height <= 0 then invalid_arg "Cell.make: non-positive size";
  let names = List.map (fun tr -> tr.tname) transistors in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Cell.make: duplicate transistor names";
  { cname; width; height; shapes; transistors; pins }

let bbox t = Geometry.Rect.make ~lx:0 ~ly:0 ~hx:t.width ~hy:t.height

let shapes_on t layer =
  List.filter_map
    (fun s -> if Layer.equal s.layer layer then Some s.poly else None)
    t.shapes

let find_transistor t name =
  List.find_opt (fun tr -> String.equal tr.tname name) t.transistors
