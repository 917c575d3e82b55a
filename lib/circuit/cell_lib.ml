type t = {
  name : string;
  inputs : string list;
  stack_n : int;
  stack_p : int;
  fingers : int;
  stages : int;
  layout_cell : string;
  nmos_names : string list;
  pmos_names : string list;
}

let mn k = List.init k (Printf.sprintf "MN%d")

let mp k = List.init k (Printf.sprintf "MP%d")

let entry name inputs ~sn ~sp ~fingers ~stages ~cols =
  {
    name;
    inputs;
    stack_n = sn;
    stack_p = sp;
    fingers;
    stages;
    layout_cell = name;
    nmos_names = mn cols;
    pmos_names = mp cols;
  }

let all =
  [
    entry "INV_X1" [ "A" ] ~sn:1 ~sp:1 ~fingers:1 ~stages:1 ~cols:1;
    entry "INV_X2" [ "A" ] ~sn:1 ~sp:1 ~fingers:2 ~stages:1 ~cols:2;
    entry "INV_X4" [ "A" ] ~sn:1 ~sp:1 ~fingers:4 ~stages:1 ~cols:4;
    entry "BUF_X1" [ "A" ] ~sn:1 ~sp:1 ~fingers:1 ~stages:2 ~cols:2;
    entry "NAND2_X1" [ "A"; "B" ] ~sn:2 ~sp:1 ~fingers:1 ~stages:1 ~cols:2;
    entry "NAND2_X2" [ "A"; "B" ] ~sn:2 ~sp:1 ~fingers:2 ~stages:1 ~cols:4;
    entry "NOR2_X1" [ "A"; "B" ] ~sn:1 ~sp:2 ~fingers:1 ~stages:1 ~cols:2;
    entry "NAND3_X1" [ "A"; "B"; "C" ] ~sn:3 ~sp:1 ~fingers:1 ~stages:1 ~cols:3;
    entry "NOR3_X1" [ "A"; "B"; "C" ] ~sn:1 ~sp:3 ~fingers:1 ~stages:1 ~cols:3;
    entry "AOI21_X1" [ "A"; "B"; "C" ] ~sn:2 ~sp:2 ~fingers:1 ~stages:1 ~cols:3;
    entry "OAI21_X1" [ "A"; "B"; "C" ] ~sn:2 ~sp:2 ~fingers:1 ~stages:1 ~cols:3;
    entry "XOR2_X1" [ "A"; "B" ] ~sn:2 ~sp:2 ~fingers:1 ~stages:2 ~cols:4;
  ]

let find name = List.find (fun c -> String.equal c.name name) all

let mem name = List.exists (fun c -> String.equal c.name name) all
