(* A region is a canonical list of disjoint rectangles: a vertical slab
   decomposition whose slabs are merged when stacked slabs share the
   same x-span.  All boolean structure lives in [bands_of] (y slabbing)
   and [interval_op] (1-D boolean sweep). *)

type t = Rect.t list

let empty = []

let is_empty t = t = []

(* -- 1-D interval boolean sweep ------------------------------------ *)

(* Intervals are sorted disjoint [(lo, hi)] pairs with lo < hi. *)
let interval_op keep xs ys =
  let events =
    List.concat_map (fun (lo, hi) -> [ (lo, `A, true); (hi, `A, false) ]) xs
    @ List.concat_map (fun (lo, hi) -> [ (lo, `B, true); (hi, `B, false) ]) ys
  in
  let events =
    List.sort
      (fun (x1, _, open1) (x2, _, open2) ->
        match Int.compare x1 x2 with
        | 0 -> Bool.compare open2 open1 (* opens before closes at same x *)
        | c -> c)
      events
  in
  let rec sweep in_a in_b start acc = function
    | [] -> List.rev acc
    | (x, tag, opening) :: rest ->
        let in_a' = if tag = `A then in_a + (if opening then 1 else -1) else in_a in
        let in_b' = if tag = `B then in_b + (if opening then 1 else -1) else in_b in
        let was = keep (in_a > 0) (in_b > 0) in
        let now = keep (in_a' > 0) (in_b' > 0) in
        if (not was) && now then sweep in_a' in_b' (Some x) acc rest
        else if was && not now then
          let acc =
            match start with
            | Some s when s < x -> (s, x) :: acc
            | Some _ | None -> acc
          in
          sweep in_a' in_b' None acc rest
        else sweep in_a' in_b' start acc rest
  in
  sweep 0 0 None [] events

(* -- y-banding ------------------------------------------------------ *)

let sorted_unique xs = List.sort_uniq Int.compare xs

(* For each y-band, the x-intervals covered by the rectangle list. *)
let intervals_in_band rects y1 y2 =
  List.filter_map
    (fun (r : Rect.t) ->
      if r.Rect.ly <= y1 && r.Rect.hy >= y2 then Some (r.Rect.lx, r.Rect.hx)
      else None)
    rects

(* Merge vertically adjacent slabs with identical x-spans. *)
let coalesce rects =
  let sorted =
    List.sort
      (fun (a : Rect.t) (b : Rect.t) ->
        match Int.compare a.Rect.lx b.Rect.lx with
        | 0 -> (
            match Int.compare a.Rect.hx b.Rect.hx with
            | 0 -> Int.compare a.Rect.ly b.Rect.ly
            | c -> c)
        | c -> c)
      rects
  in
  let rec go acc = function
    | [] -> List.rev acc
    | (r : Rect.t) :: rest -> (
        match acc with
        | (p : Rect.t) :: acc'
          when p.Rect.lx = r.Rect.lx && p.Rect.hx = r.Rect.hx && p.Rect.hy = r.Rect.ly ->
            go ({ p with Rect.hy = r.Rect.hy } :: acc') rest
        | _ -> go (r :: acc) rest)
  in
  go [] sorted

let boolean keep (a : t) (b : t) : t =
  let ys =
    sorted_unique
      (List.concat_map (fun (r : Rect.t) -> [ r.Rect.ly; r.Rect.hy ]) (a @ b))
  in
  let rec bands acc = function
    | y1 :: (y2 :: _ as rest) ->
        let xa = interval_op (fun x _ -> x) (intervals_in_band a y1 y2) [] in
        let xb = interval_op (fun x _ -> x) (intervals_in_band b y1 y2) [] in
        let xs = interval_op keep xa xb in
        let slabs =
          List.map (fun (lo, hi) -> Rect.make ~lx:lo ~ly:y1 ~hx:hi ~hy:y2) xs
        in
        bands (List.rev_append slabs acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  coalesce (bands [] ys)

let union a b = boolean (fun x y -> x || y) a b

let inter a b = boolean (fun x y -> x && y) a b

let diff a b = boolean (fun x y -> x && not y) a b

let xor a b = boolean (fun x y -> x <> y) a b

let of_rects rs =
  let rs = List.filter (fun r -> not (Rect.is_empty r)) rs in
  boolean (fun x y -> x || y) rs []

let of_rect r = of_rects [ r ]

let of_polygon p =
  let verts = Polygon.vertices p in
  let edges = Polygon.edges p in
  let ys = sorted_unique (List.map (fun (v : Point.t) -> v.Point.y) verts) in
  let vertical_edges =
    List.filter (fun e -> Edge.orientation e = Edge.Vertical) edges
  in
  let rec bands acc = function
    | y1 :: (y2 :: _ as rest) ->
        let xs =
          List.filter_map
            (fun e ->
              let lo, hi = Edge.span e in
              if lo <= y1 && hi >= y2 then Some (Edge.perp_coord e) else None)
            vertical_edges
          |> List.sort Int.compare
        in
        let rec pair acc = function
          | x1 :: x2 :: rest -> pair (Rect.make ~lx:x1 ~ly:y1 ~hx:x2 ~hy:y2 :: acc) rest
          | [ _ ] -> invalid_arg "Region.of_polygon: odd crossing count"
          | [] -> acc
        in
        bands (pair acc xs) rest
    | [ _ ] | [] -> acc
  in
  coalesce (List.rev (bands [] ys))

let to_rects t = t

let area t = List.fold_left (fun acc r -> acc + Rect.area r) 0 t

let bbox = function [] -> None | rs -> Some (Rect.hull_of_list rs)

let contains_point t p = List.exists (fun r -> Rect.contains_point r p) t

let translate t d = List.map (fun r -> Rect.translate r d) t

let inflate t d = of_rects (List.map (fun r -> Rect.inflate r d) t)

let equal a b = List.length a = List.length b && List.for_all2 Rect.equal a b
