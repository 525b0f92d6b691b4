(* M.uncalled in a comment is not a call, nor is "M.uncalled" in a string *)
module N = M

let () = print_int (M.called + N.aliased)
let () = print_string {|M.uncalled|}
let () = print_int (let open M in opened)
