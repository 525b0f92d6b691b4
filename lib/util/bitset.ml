(* Bits are packed 62 per word ([Sys.int_size - 1] would be 62 anyway on
   64-bit; we use a fixed 62 to keep arithmetic simple and portable). *)

let bits_per_word = 62

type t = { n : int; words : int array }

let word_count n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { n; words = Array.make (max 1 (word_count n)) 0 }

let copy t = { n = t.n; words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of range"

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let fill t =
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- (1 lsl bits_per_word) - 1
  done;
  (* Mask off bits beyond capacity in the last word. *)
  let last_bits = t.n mod bits_per_word in
  if t.n = 0 then clear t
  else if last_bits <> 0 then begin
    let lw = Array.length t.words - 1 in
    t.words.(lw) <- t.words.(lw) land ((1 lsl last_bits) - 1)
  end

let same_capacity a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch"

let union_into dst src =
  same_capacity dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let inter_into dst src =
  same_capacity dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let inter a b = let c = copy a in inter_into c b; c

(* Count-trailing-zeros by byte-table steps: the old one-shift-per-bit
   loop cost ~31 iterations on average for dense sets and dominated
   [iter] on 50%-full adjacency rows.  Table built once at module init. *)
let ctz8 =
  Array.init 256 (fun b -> (* alloc-ok *)
      if b = 0 then 8
      else begin
        let rec go b i = if b land 1 <> 0 then i else go (b lsr 1) (i + 1) in
        go b 0
      end)

let rec ctz_from b i =
  if b land 0xFF = 0 then ctz_from (b lsr 8) (i + 8)
  else i + Array.unsafe_get ctz8 (b land 0xFF)

let rec iter_word f base word =
  if word <> 0 then begin
    f (base + ctz_from word 0);
    iter_word f base (word land (word - 1))
  end

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    iter_word f (w * bits_per_word) t.words.(w)
  done

(* Members >= [lo] only: whole words below [lo]'s are skipped and the
   boundary word is masked once, so callers that want an upper triangle
   (e.g. each undirected edge once) pay nothing for the lower half. *)
let iter_ge f t lo =
  if lo < t.n then begin
    let w0 = lo / bits_per_word and b0 = lo mod bits_per_word in
    iter_word f (w0 * bits_per_word)
      (t.words.(w0) land (-1 lsl b0));
    for w = w0 + 1 to Array.length t.words - 1 do
      iter_word f (w * bits_per_word) t.words.(w)
    done
  end

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let first_absent t =
  let full = (1 lsl bits_per_word) - 1 in
  let rec scan w =
    if w >= Array.length t.words then t.n
    else if t.words.(w) = full then scan (w + 1)
    else begin
      let word = t.words.(w) in
      let rec bit b i = if word land b = 0 then i else bit (b lsl 1) (i + 1) in
      min t.n ((w * bits_per_word) + bit 1 0)
    end
  in
  scan 0

let first t =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i
