type t = Nwell | Active | Poly | Contact | Metal1 | Via1 | Metal2

let all = [ Nwell; Active; Poly; Contact; Metal1; Via1; Metal2 ]

let name = function
  | Nwell -> "nwell"
  | Active -> "active"
  | Poly -> "poly"
  | Contact -> "contact"
  | Metal1 -> "metal1"
  | Via1 -> "via1"
  | Metal2 -> "metal2"

let of_name s = List.find_opt (fun l -> name l = s) all

let equal (a : t) b = a = b

let pp ppf l = Format.pp_print_string ppf (name l)
