let header = "tdmd"
let render x = header ^ x
