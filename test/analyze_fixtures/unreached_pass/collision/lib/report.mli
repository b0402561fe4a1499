val header : string
val render : string -> string
