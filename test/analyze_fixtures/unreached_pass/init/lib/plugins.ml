let flag = ref false
let install () = flag := true
let installed () = !flag
