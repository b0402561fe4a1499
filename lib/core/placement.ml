type t = int list

let of_list vs = List.sort_uniq Int.compare vs
let empty = []
let size = List.length
let mem t v = List.exists (Int.equal v) t
let add t v = of_list (v :: t)
let remove t v = List.filter (fun u -> not (Int.equal u v)) t
let union a b = of_list (a @ b)
let to_list t = t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    t
