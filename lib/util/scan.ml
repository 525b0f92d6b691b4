type t = {
  text : string;
  mutable pos : int; (* start of the next line *)
  mutable line : int;
  mutable count : int;
  mutable starts : int array; (* token k is text.[starts.(k) .. stops.(k) - 1] *)
  mutable stops : int array;
}

let of_string text =
  { text; pos = 0; line = 0; count = 0; starts = Array.make 8 0; stops = Array.make 8 0 }

(* String.trim's whitespace; '\n' cannot occur inside a line. *)
let is_pad c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

let push s a b =
  if s.count = Array.length s.starts then begin
    let grow a = Array.append a a in
    s.starts <- grow s.starts;
    s.stops <- grow s.stops
  end;
  s.starts.(s.count) <- a;
  s.stops.(s.count) <- b;
  s.count <- s.count + 1

(* Tokenize one line: [pos, the first '#' or '\n' or the end), trimmed,
   split on ' '. *)
let scan_line s =
  let text = s.text and len = String.length s.text in
  let eol = ref s.pos and cut = ref (-1) in
  while !eol < len && text.[!eol] <> '\n' do
    if !cut < 0 && text.[!eol] = '#' then cut := !eol;
    incr eol
  done;
  let a = ref s.pos and b = ref (if !cut < 0 then !eol else !cut) in
  while !a < !b && is_pad text.[!a] do
    incr a
  done;
  while !b > !a && is_pad text.[!b - 1] do
    decr b
  done;
  s.line <- s.line + 1;
  s.count <- 0;
  s.pos <- !eol + 1;
  let i = ref !a in
  while !i < !b do
    if text.[!i] = ' ' then incr i
    else begin
      let start = !i in
      while !i < !b && text.[!i] <> ' ' do
        incr i
      done;
      push s start !i
    end
  done

let next s =
  s.count <- 0;
  while s.count = 0 && s.pos < String.length s.text do
    scan_line s
  done;
  s.count > 0

let line s = s.line
let count s = s.count

let is s i w =
  let a = s.starts.(i) in
  let n = s.stops.(i) - a in
  n = String.length w
  &&
  let k = ref 0 in
  while !k < n && s.text.[a + !k] = w.[!k] do
    incr k
  done;
  !k = n

let word s i = String.sub s.text s.starts.(i) (s.stops.(i) - s.starts.(i))

let int s i =
  let text = s.text and a = s.starts.(i) and b = s.stops.(i) in
  let d = if text.[a] = '-' then a + 1 else a in
  let v = ref 0 and k = ref d in
  if b - d <= 18 then
    while !k < b && text.[!k] >= '0' && text.[!k] <= '9' do
      v := (10 * !v) + Char.code text.[!k] - Char.code '0';
      incr k
    done;
  if !k = b && b > d then Some (if d > a then - !v else !v)
  else int_of_string_opt (word s i)

let ints s i =
  let rec go j acc =
    if j >= s.count then Ok (List.rev acc)
    else match int s j with Some v -> go (j + 1) (v :: acc) | None -> Error j
  in
  go i []
