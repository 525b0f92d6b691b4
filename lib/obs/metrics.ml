(* Striping: each counter holds [stripes] atomic cells and a domain
   updates cell [domain_id land (stripes - 1)].  Domain ids are assigned
   sequentially by the runtime, so concurrently live domains land on
   distinct stripes until more than [stripes] run at once — and even then
   the cells stay correct, just contended.  Reads sum all stripes; they
   may race with writers, which is fine for monitoring (each cell read is
   atomic, so the total is a valid "recent" value). *)

let stripes = 16 (* power of two *)

let stripe () = (Domain.self () :> int) land (stripes - 1)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

type counter = int Atomic.t array

(* Histograms delegate to an HDR histogram: exact quantiles from fixed
   memory, recorded lock-free from any domain.  The enable gate lives
   here; Hdr itself is always on.  The Hdr.t (about 45 KiB) is made on the
   first enabled observation and installed with one CAS, so racing domains
   agree on it and a process that never enables Metrics never pays for it;
   until then the histogram reads as empty. *)
type histogram = Hdr.t option Atomic.t

type entry = C of counter | H of histogram

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64 (* alloc-ok: once *)
let registry_lock = Mutex.create ()
let atomic_cells n = Array.init n (fun _ -> Atomic.make 0) (* alloc-ok: creation *)

(* Find-or-create under the registry lock; [unwrap] rejects a name
   registered as the other kind. *)
let register name mk unwrap =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some e -> unwrap e
      | None ->
        let e = mk () in
        Hashtbl.add registry name e;
        unwrap e)

let counter name =
  register name
    (fun () -> C (atomic_cells stripes))
    (function
      | C c -> c
      | H _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter"))

let histogram name =
  register name
    (fun () -> H (Atomic.make None))
    (function
      | H h -> h
      | C _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram"))

let add c v =
  if Atomic.get on then ignore (Atomic.fetch_and_add c.(stripe ()) v : int)

let incr c = add c 1
let value c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c
let rec hdr_of h =
  match Atomic.get h with
  | Some t -> t
  | None ->
    ignore (Atomic.compare_and_set h None (Some (Hdr.create ())) (* alloc-ok: first use *));
    hdr_of h

let observe h v = if Atomic.get on then Hdr.record (hdr_of h) v

type instrument = Counter of int | Histogram of Hdr.snapshot

let snapshot () =
  let all =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun name e acc -> (name, e) :: acc) registry [])
  in
  List.filter_map
    (fun (name, e) ->
      match e with
      | C c ->
        let v = value c in
        if v = 0 then None else Some (name, Counter v)
      | H h -> (
        match Atomic.get h with
        | Some t when Hdr.count t > 0 -> Some (name, Histogram (Hdr.snapshot t))
        | _ -> None))
    all
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.iter
        (fun _ e ->
          match e with
          | C c -> Array.iter (fun a -> Atomic.set a 0) c
          | H h -> Option.iter Hdr.reset (Atomic.get h))
        registry)

let pp_summary ppf () =
  let entries = snapshot () in
  if entries = [] then Format.fprintf ppf "(no metrics recorded)"
  else begin
    Format.fprintf ppf "@[<v>";
    List.iteri
      (fun i (name, inst) ->
        if i > 0 then Format.fprintf ppf "@,";
        match inst with
        | Counter v -> Format.fprintf ppf "%-32s %12d" name v
        | Histogram s ->
          Format.fprintf ppf
            "%-32s %12d  sum %-10d min %-8d p50 %-8d p99 %-8d max %d" name
            s.Hdr.count s.Hdr.sum s.Hdr.min s.Hdr.p50 s.Hdr.p99 s.Hdr.max)
      entries;
    Format.fprintf ppf "@]"
  end
