type kernel = { sigma : float; weight : float }

type t = {
  kernels : kernel list;
  threshold : float;
  step : float;
  halo : int;
  defocus_blur : float;
  cache : bool;
}

let default_kernels =
  [ { sigma = 45.0; weight = 1.0 };
    { sigma = 120.0; weight = -0.28 };
    { sigma = 300.0; weight = 0.06 } ]

let single_kernel = [ { sigma = 50.0; weight = 1.0 } ]

let normalise kernels =
  let total = List.fold_left (fun acc k -> acc +. k.weight) 0.0 kernels in
  if Float.abs total < 1e-9 then invalid_arg "Model: kernel weights sum to 0";
  List.map (fun k -> { k with weight = k.weight /. total }) kernels

let create ?(kernels = default_kernels) ?(step = 5.0) ?(defocus_blur = 0.18)
    ?(cache = true) () =
  let kernels = normalise kernels in
  let max_sigma = List.fold_left (fun acc k -> Float.max acc k.sigma) 0.0 kernels in
  (* Halo covers 3 sigma of the widest kernel at worst-case defocus,
     so tile boundaries cannot bias interior intensity. *)
  let worst =
    sqrt ((max_sigma ** 2.0) +. ((defocus_blur *. Condition.max_defocus) ** 2.0))
  in
  { kernels; threshold = 0.5; step; halo = int_of_float (3.2 *. worst); defocus_blur;
    cache }

let effective_sigma t k ~defocus =
  sqrt ((k.sigma ** 2.0) +. ((t.defocus_blur *. defocus) ** 2.0))

let printed_threshold t (c : Condition.t) = t.threshold /. c.Condition.dose

let with_threshold t threshold =
  if threshold <= 0.0 || threshold >= 1.0 then
    invalid_arg "Model.with_threshold: threshold out of (0, 1)";
  { t with threshold }

let pp ppf t =
  Format.fprintf ppf "model: %d kernels, th=%.4f, step=%.1fnm, halo=%dnm"
    (List.length t.kernels) t.threshold t.step t.halo
