type orientation = R0 | R90 | R180 | R270 | MX | MY | MXR90 | MYR90

type t = { orient : orientation; offset : Point.t }

let identity = { orient = R0; offset = Point.origin }

let make ?(orient = R0) offset = { orient; offset }

let orient_point o (p : Point.t) =
  let x = p.Point.x and y = p.Point.y in
  match o with
  | R0 -> Point.make x y
  | R90 -> Point.make (-y) x
  | R180 -> Point.make (-x) (-y)
  | R270 -> Point.make y (-x)
  | MX -> Point.make x (-y)
  | MY -> Point.make (-x) y
  | MXR90 -> Point.make y x
  | MYR90 -> Point.make (-y) (-x)

let apply_point t p = Point.add (orient_point t.orient p) t.offset

let apply_rect t (r : Rect.t) =
  let a = apply_point t (Point.make r.Rect.lx r.Rect.ly) in
  let b = apply_point t (Point.make r.Rect.hx r.Rect.hy) in
  Rect.of_corners a b

let apply_polygon t p =
  Polygon.make (List.map (apply_point t) (Polygon.vertices p))

(* Composition table worked out from the action on basis vectors. *)
let compose_orient outer inner =
  let mat = function
    | R0 -> (1, 0, 0, 1)
    | R90 -> (0, -1, 1, 0)
    | R180 -> (-1, 0, 0, -1)
    | R270 -> (0, 1, -1, 0)
    | MX -> (1, 0, 0, -1)
    | MY -> (-1, 0, 0, 1)
    | MXR90 -> (0, 1, 1, 0)
    | MYR90 -> (0, -1, -1, 0)
  in
  let a1, b1, c1, d1 = mat outer in
  let a2, b2, c2, d2 = mat inner in
  let m =
    ( (a1 * a2) + (b1 * c2),
      (a1 * b2) + (b1 * d2),
      (c1 * a2) + (d1 * c2),
      (c1 * b2) + (d1 * d2) )
  in
  match m with
  | 1, 0, 0, 1 -> R0
  | 0, -1, 1, 0 -> R90
  | -1, 0, 0, -1 -> R180
  | 0, 1, -1, 0 -> R270
  | 1, 0, 0, -1 -> MX
  | -1, 0, 0, 1 -> MY
  | 0, 1, 1, 0 -> MXR90
  | 0, -1, -1, 0 -> MYR90
  | _ -> assert false

let compose outer inner =
  { orient = compose_orient outer.orient inner.orient;
    offset = Point.add (orient_point outer.orient inner.offset) outer.offset }

let invert t =
  let inv = function
    | R0 -> R0
    | R90 -> R270
    | R180 -> R180
    | R270 -> R90
    | MX -> MX
    | MY -> MY
    | MXR90 -> MXR90
    | MYR90 -> MYR90
  in
  let o = inv t.orient in
  { orient = o; offset = orient_point o (Point.neg t.offset) }
