type t = { dose : float; defocus : float }

let nominal = { dose = 1.0; defocus = 0.0 }

let max_defocus = 200.0

let make ~dose ~defocus =
  if not (Float.is_finite dose && Float.is_finite defocus) then
    invalid_arg "Condition.make: dose and defocus must be finite";
  if dose <= 0.0 then invalid_arg "Condition.make: dose must be positive";
  if Float.abs defocus > max_defocus then
    invalid_arg
      (Printf.sprintf "Condition.make: |defocus| must be at most %g nm" max_defocus);
  { dose; defocus }

let linspace lo hi n =
  if n <= 0 then invalid_arg "Condition: steps must be positive";
  if n = 1 then [ (lo +. hi) /. 2.0 ]
  else List.init n (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let grid ~dose_range:(dlo, dhi) ~dose_steps ~defocus_range:(flo, fhi) ~defocus_steps =
  List.concat_map
    (fun dose -> List.map (fun defocus -> make ~dose ~defocus) (linspace flo fhi defocus_steps))
    (linspace dlo dhi dose_steps)

let corners ~dose_range:(dlo, dhi) ~defocus_range:(flo, fhi) =
  nominal
  :: List.map
       (fun (dose, defocus) -> make ~dose ~defocus)
       [ (dlo, flo); (dlo, fhi); (dhi, flo); (dhi, fhi) ]

let pp ppf t = Format.fprintf ppf "dose=%.3f defocus=%.0fnm" t.dose t.defocus
