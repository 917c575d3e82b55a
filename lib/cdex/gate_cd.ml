type t = {
  gate : Layout.Chip.gate_ref;
  condition : Litho.Condition.t;
  cds : float list;
  slices_requested : int;
  printed : bool;
}

let profile t =
  match t.cds with
  | [] -> None
  | cds ->
      Some (Device.Gate_profile.of_cds ~w:(float_of_int t.gate.Layout.Chip.drawn_w) cds)

let mean_cd t =
  match t.cds with
  | [] -> invalid_arg "Gate_cd.mean_cd: no printed slices"
  | cds -> List.fold_left ( +. ) 0.0 cds /. float_of_int (List.length cds)

let min_cd t =
  match t.cds with
  | [] -> invalid_arg "Gate_cd.min_cd: no printed slices"
  | cds -> List.fold_left Float.min infinity cds

let delta_cd t = mean_cd t -. float_of_int t.gate.Layout.Chip.drawn_l
