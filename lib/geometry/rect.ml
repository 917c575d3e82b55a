type t = { lx : int; ly : int; hx : int; hy : int }

let make ~lx ~ly ~hx ~hy =
  { lx = min lx hx; ly = min ly hy; hx = max lx hx; hy = max ly hy }

let of_corners (a : Point.t) (b : Point.t) =
  make ~lx:a.Point.x ~ly:a.Point.y ~hx:b.Point.x ~hy:b.Point.y

let of_center ~cx ~cy ~w ~h =
  if w < 0 || h < 0 then invalid_arg "Rect.of_center: negative size";
  (* Integer division biases the extra nanometre of odd sizes low. *)
  { lx = cx - (w / 2); ly = cy - (h / 2); hx = cx - (w / 2) + w; hy = cy - (h / 2) + h }

let width r = r.hx - r.lx

let height r = r.hy - r.ly

let area r = width r * height r

let is_empty r = r.hx <= r.lx || r.hy <= r.ly

let center r = Point.make ((r.lx + r.hx) / 2) ((r.ly + r.hy) / 2)

let inflate r d =
  let lx = r.lx - d and hx = r.hx + d and ly = r.ly - d and hy = r.hy + d in
  if lx > hx || ly > hy then
    let c = center r in
    { lx = c.Point.x; ly = c.Point.y; hx = c.Point.x; hy = c.Point.y }
  else { lx; ly; hx; hy }

let translate r (d : Point.t) =
  { lx = r.lx + d.Point.x; ly = r.ly + d.Point.y;
    hx = r.hx + d.Point.x; hy = r.hy + d.Point.y }

let contains_point r (p : Point.t) =
  p.Point.x >= r.lx && p.Point.x <= r.hx && p.Point.y >= r.ly && p.Point.y <= r.hy

let contains a b = b.lx >= a.lx && b.hx <= a.hx && b.ly >= a.ly && b.hy <= a.hy

let overlaps a b = a.lx < b.hx && b.lx < a.hx && a.ly < b.hy && b.ly < a.hy

let touches a b = a.lx <= b.hx && b.lx <= a.hx && a.ly <= b.hy && b.ly <= a.hy

let inter a b =
  let lx = max a.lx b.lx and hx = min a.hx b.hx in
  let ly = max a.ly b.ly and hy = min a.hy b.hy in
  if lx > hx || ly > hy then None else Some { lx; ly; hx; hy }

let hull a b =
  { lx = min a.lx b.lx; ly = min a.ly b.ly;
    hx = max a.hx b.hx; hy = max a.hy b.hy }

let hull_of_list = function
  | [] -> invalid_arg "Rect.hull_of_list: empty"
  | r :: rs -> List.fold_left hull r rs

let separation a b =
  let axis al ah bl bh =
    if ah < bl then bl - ah else if bh < al then al - bh else 0
  in
  (axis a.lx a.hx b.lx b.hx, axis a.ly a.hy b.ly b.hy)

let equal a b = a.lx = b.lx && a.ly = b.ly && a.hx = b.hx && a.hy = b.hy

let pp ppf r = Format.fprintf ppf "[%d,%d..%d,%d]" r.lx r.ly r.hx r.hy

let to_string r = Format.asprintf "%a" pp r
