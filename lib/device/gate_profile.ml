type slice = { width : float; length : float }

type t = { slices : slice list }

let make slices =
  if slices = [] then invalid_arg "Gate_profile.make: empty";
  List.iter
    (fun s ->
      if s.width <= 0.0 || s.length <= 0.0 then
        invalid_arg "Gate_profile.make: non-positive slice")
    slices;
  { slices }

let rectangular ~w ~l = make [ { width = w; length = l } ]

let of_cds ~w cds =
  match cds with
  | [] -> invalid_arg "Gate_profile.of_cds: no CDs"
  | _ ->
      let width = w /. float_of_int (List.length cds) in
      make (List.map (fun length -> { width; length }) cds)

let total_width t = List.fold_left (fun acc s -> acc +. s.width) 0.0 t.slices

let mean_length t =
  let num = List.fold_left (fun acc s -> acc +. (s.width *. s.length)) 0.0 t.slices in
  num /. total_width t

let min_length t =
  List.fold_left (fun acc s -> Float.min acc s.length) infinity t.slices

let max_length t =
  List.fold_left (fun acc s -> Float.max acc s.length) neg_infinity t.slices
