type t = { x : int; y : int }

let make x y = { x; y }

let origin = { x = 0; y = 0 }

let add a b = { x = a.x + b.x; y = a.y + b.y }

let sub a b = { x = a.x - b.x; y = a.y - b.y }

let neg a = { x = -a.x; y = -a.y }

let scale k a = { x = k * a.x; y = k * a.y }

let dot a b = (a.x * b.x) + (a.y * b.y)

let cross a b = (a.x * b.y) - (a.y * b.x)

let dist2 a b =
  let dx = a.x - b.x and dy = a.y - b.y in
  (dx * dx) + (dy * dy)

let manhattan a b = abs (a.x - b.x) + abs (a.y - b.y)

let equal a b = a.x = b.x && a.y = b.y

let compare a b =
  match Int.compare a.x b.x with 0 -> Int.compare a.y b.y | c -> c

let compare_yx a b =
  match Int.compare a.y b.y with 0 -> Int.compare a.x b.x | c -> c

let pp ppf { x; y } = Format.fprintf ppf "(%d,%d)" x y
