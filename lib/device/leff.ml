type t = { l_on : float; l_off : float; ion_total : float; ioff_total : float }

let l_lo = 8.0

let l_hi = 400.0

(* Solve f(l) = target for f monotone decreasing in l, by bisection. *)
let solve_length f target =
  let flo = f l_lo and fhi = f l_hi in
  if target >= flo then l_lo
  else if target <= fhi then l_hi
  else begin
    let lo = ref l_lo and hi = ref l_hi in
    for _ = 1 to 60 do
      let mid = (!lo +. !hi) /. 2.0 in
      if f mid > target then lo := mid else hi := mid
    done;
    (!lo +. !hi) /. 2.0
  end

let reduce params profile =
  let w = Gate_profile.total_width profile in
  let ion_total =
    List.fold_left
      (fun acc (s : Gate_profile.slice) ->
        acc +. Mosfet.ion params ~w:s.Gate_profile.width ~l:s.Gate_profile.length)
      0.0 profile.Gate_profile.slices
  in
  let ioff_total =
    List.fold_left
      (fun acc (s : Gate_profile.slice) ->
        acc +. Mosfet.ioff params ~w:s.Gate_profile.width ~l:s.Gate_profile.length)
      0.0 profile.Gate_profile.slices
  in
  let l_on = solve_length (fun l -> Mosfet.ion params ~w ~l) ion_total in
  let l_off = solve_length (fun l -> Mosfet.ioff params ~w ~l) ioff_total in
  { l_on; l_off; ion_total; ioff_total }

let reduce_naive params profile =
  let w = Gate_profile.total_width profile in
  let l = Gate_profile.mean_length profile in
  {
    l_on = l;
    l_off = l;
    ion_total = Mosfet.ion params ~w ~l;
    ioff_total = Mosfet.ioff params ~w ~l;
  }
