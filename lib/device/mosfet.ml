type params = {
  vdd : float;
  vth0 : float;
  alpha : float;
  k_drive : float;
  sce_v : float;
  sce_lambda : float;
  i_leak0 : float;
  n_sub : float;
  c_gate : float;
  c_overlap : float;
}

let nmos_90 =
  {
    vdd = 1.0;
    vth0 = 0.32;
    alpha = 1.3;
    k_drive = 180.0;
    sce_v = 1.3;
    sce_lambda = 30.0;
    i_leak0 = 0.8;
    n_sub = 1.45;
    c_gate = 1.4e-5;
    c_overlap = 3.0e-4;
  }

let pmos_90 =
  {
    vdd = 1.0;
    vth0 = 0.30;
    alpha = 1.35;
    k_drive = 80.0;
    sce_v = 1.2;
    sce_lambda = 32.0;
    i_leak0 = 0.5;
    n_sub = 1.5;
    c_gate = 1.4e-5;
    c_overlap = 3.0e-4;
  }

let thermal_voltage = 0.0259

let vth p ~l =
  if l <= 0.0 then invalid_arg "Mosfet.vth: non-positive length";
  p.vth0 -. (p.sce_v *. exp (-.l /. p.sce_lambda))

let ion p ~w ~l =
  if w <= 0.0 || l <= 0.0 then invalid_arg "Mosfet.ion: non-positive geometry";
  let overdrive = p.vdd -. vth p ~l in
  if overdrive <= 0.0 then 0.0
  else p.k_drive *. (w /. l) *. (overdrive ** p.alpha)

let ioff p ~w ~l =
  if w <= 0.0 || l <= 0.0 then invalid_arg "Mosfet.ioff: non-positive geometry";
  p.i_leak0 *. (w /. l) *. exp (-.vth p ~l /. (p.n_sub *. thermal_voltage))

let cgate p ~w ~l = (p.c_gate *. w *. l) +. (p.c_overlap *. w)

let req p ~w ~l =
  let i = ion p ~w ~l in
  if i <= 0.0 then infinity else p.vdd /. i *. 1000.0
