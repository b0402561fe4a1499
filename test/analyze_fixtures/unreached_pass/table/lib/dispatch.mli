val find : string -> (int -> int) option
