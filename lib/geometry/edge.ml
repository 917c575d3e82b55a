type orientation = Horizontal | Vertical

type t = { a : Point.t; b : Point.t }

let make a b =
  if Point.equal a b then invalid_arg "Edge.make: degenerate edge";
  if a.Point.x <> b.Point.x && a.Point.y <> b.Point.y then
    invalid_arg "Edge.make: not axis-aligned";
  { a; b }

let orientation e = if e.a.Point.y = e.b.Point.y then Horizontal else Vertical

let length e = Point.manhattan e.a e.b

let midpoint e =
  Point.make ((e.a.Point.x + e.b.Point.x) / 2) ((e.a.Point.y + e.b.Point.y) / 2)

let sign v = if v > 0 then 1 else if v < 0 then -1 else 0

let direction e =
  Point.make (sign (e.b.Point.x - e.a.Point.x)) (sign (e.b.Point.y - e.a.Point.y))

(* Right of direction (dx, dy) is (dy, -dx): interior left for CCW. *)
let outward_normal e =
  let d = direction e in
  Point.make d.Point.y (-d.Point.x)

let perp_coord e =
  match orientation e with Horizontal -> e.a.Point.y | Vertical -> e.a.Point.x

let span e =
  match orientation e with
  | Horizontal -> (min e.a.Point.x e.b.Point.x, max e.a.Point.x e.b.Point.x)
  | Vertical -> (min e.a.Point.y e.b.Point.y, max e.a.Point.y e.b.Point.y)

let shift e d =
  let n = outward_normal e in
  let off = Point.scale d n in
  { a = Point.add e.a off; b = Point.add e.b off }

let split e ~max_len =
  if max_len <= 0 then invalid_arg "Edge.split: max_len must be positive";
  let len = length e in
  if len <= max_len then [ e ]
  else
    let n = (len + max_len - 1) / max_len in
    let d = direction e in
    (* Distribute the length as evenly as possible across n fragments. *)
    let rec cuts i acc prev =
      if i > n then List.rev acc
      else
        let t = len * i / n in
        let p = Point.add e.a (Point.scale t d) in
        cuts (i + 1) ({ a = prev; b = p } :: acc) p
    in
    cuts 1 [] e.a

let sample e ~step =
  if step <= 0 then invalid_arg "Edge.sample: step must be positive";
  let len = length e in
  let d = direction e in
  let rec go t acc =
    if t >= len then List.rev (e.b :: acc)
    else go (t + step) (Point.add e.a (Point.scale t d) :: acc)
  in
  go 0 []
