type t = int

let cap = max_int / 4

let clamp x = if x < 0 then 0 else if x > cap then cap else x

let zero = 0
let one = 1
let of_int = clamp
let to_int x = x

let add a b = clamp (a + b)

let mul a b =
  if a = 0 || b = 0 then 0
  else if a > cap / b then cap
  else a * b

let is_saturated x = x >= cap
let compare = Int.compare
let equal = Int.equal
