(* The traced run's span buffer: fixed-capacity parallel int arrays filled
   without allocation, written out once as a Chrome trace-event document
   at exit.  Each span carries the id of the op or plan it belongs to, so
   every layer's span for one op shares a trace id.  Spans past the
   capacity are counted, not stored. *)

type t = {
  names : string array;  (** span name table; spans store the index *)
  name : int array;
  tid : int array;
  trace : int array;
  t0 : int array;
  dur : int array;
  next : int Atomic.t;  (** two client threads record concurrently *)
  origin : int;
}

let create ~capacity names =
  {
    names;
    name = Array.make capacity 0;
    tid = Array.make capacity 0;
    trace = Array.make capacity 0;
    t0 = Array.make capacity 0;
    dur = Array.make capacity 0;
    next = Atomic.make 0;
    origin = Meter.now_ns ();
  }

let record s ~name ~tid ~trace ~t0 ~t1 =
  let i = Atomic.fetch_and_add s.next 1 in
  if i < Array.length s.name then begin
    s.name.(i) <- name;
    s.tid.(i) <- tid;
    s.trace.(i) <- trace;
    s.t0.(i) <- t0;
    s.dur.(i) <- t1 - t0
  end

let length s = min (Atomic.get s.next) (Array.length s.name)
let dropped s = max 0 (Atomic.get s.next - Array.length s.name)

(* [threads] names each tid for the trace viewer. *)
let write s ~threads path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
      List.iteri
        (fun i (tid, label) ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc
            "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":%d,\"args\":{\"name\":%S}}"
            tid label)
        threads;
      for i = 0 to length s - 1 do
        if i > 0 || threads <> [] then output_char oc ',';
        Printf.fprintf oc
          "\n{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"trace\":%d}}"
          s.names.(s.name.(i))
          (float_of_int (s.t0.(i) - s.origin) /. 1e3)
          (float_of_int s.dur.(i) /. 1e3)
          s.tid.(i) s.trace.(i)
      done;
      output_string oc "\n]}\n")
