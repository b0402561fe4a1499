let post x = x + 1
let audit x = x > 0
