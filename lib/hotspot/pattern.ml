module G = Geometry

type t = { cells : int; bits : Bytes.t }

let signature ~cells (snippet : Snippet.t) =
  if cells <= 0 then invalid_arg "Pattern.signature: cells must be positive";
  let bits = Bytes.make (cells * cells) '\000' in
  let r = snippet.Snippet.radius in
  let cell_edge = 2 * r / cells in
  if cell_edge = 0 then invalid_arg "Pattern.signature: grid finer than 1nm";
  let rects = G.Region.to_rects snippet.Snippet.geometry in
  for iy = 0 to cells - 1 do
    for ix = 0 to cells - 1 do
      let cell =
        G.Rect.make
          ~lx:((ix * cell_edge) - r)
          ~ly:((iy * cell_edge) - r)
          ~hx:(((ix + 1) * cell_edge) - r)
          ~hy:(((iy + 1) * cell_edge) - r)
      in
      let covered =
        List.fold_left
          (fun acc q ->
            match G.Rect.inter cell q with
            | Some i -> acc + G.Rect.area i
            | None -> acc)
          0 rects
      in
      if 2 * covered >= G.Rect.area cell then
        Bytes.set bits ((iy * cells) + ix) '\001'
    done
  done;
  { cells; bits }

let distance a b =
  if a.cells <> b.cells then invalid_arg "Pattern.distance: grid mismatch";
  let d = ref 0 in
  for i = 0 to Bytes.length a.bits - 1 do
    if Bytes.get a.bits i <> Bytes.get b.bits i then incr d
  done;
  !d

let matches ~tolerance a b = distance a b <= tolerance

let scan ~source ~radius ~cells ~tolerance pattern candidates =
  List.filter
    (fun p ->
      let snippet = Snippet.capture ~source ~radius p in
      matches ~tolerance pattern (signature ~cells snippet))
    candidates

let pp ppf t =
  let set = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr set) t.bits;
  Format.fprintf ppf "pattern %dx%d (%d set)" t.cells t.cells !set
