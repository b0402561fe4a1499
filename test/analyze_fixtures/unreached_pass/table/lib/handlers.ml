let double x = 2 * x
let negate x = -x
