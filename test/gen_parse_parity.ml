(* Run a fixed set of texts through the three line-format parsers and
   print what each makes of them, byte for byte.

   [Serial.of_string] (wl instances), [Routing.requests_of_string]
   (wlreq request files) and [Script.of_string] (wlops op scripts) share
   one lexical convention: lines split on '\n', '#' starts a comment,
   the rest is trimmed and split on ' '.  Each input is printed escaped,
   then either its canonical re-rendering (the format's [to_string]) or
   [Error.to_string] of the error.  The inputs cover the lexical corners
   (tabs, CRLF, mid-line '#', padding, blank lines, integer spellings
   int_of_string accepts or rejects) and every error each grammar can
   raise.  The result is diffed against parse_parity.golden, so a parser
   change that moves an accepted input or a message shows up here. *)

open Wl_core
module Script = Wl_engine.Script

type format = Wl | Req | Ops

let inputs =
  [
    (* --- wl instances ------------------------------------------------ *)
    (Wl, "minimal v2", "wl 2\ndag 3\narc 0 1\narc 1 2\npath 0 1 2\n");
    (Wl, "headerless v1 with labels", "dag 3\nvlabel 0 a\nvlabel 2 c\narc 0 1\narc 1 2\npath 0 1\n");
    (Wl, "no final newline", "dag 2\narc 0 1");
    (Wl, "tab inside a word", "dag 3\narc\t0 1\n");
    (Wl, "tab between words", "dag 3\narc 0 \t1\n");
    (Wl, "leading and trailing tabs", "\tdag 2\t\narc 0 1\t\n");
    (Wl, "tab inside a label", "dag 2\nvlabel 0 a\tb\narc 0 1\n");
    (Wl, "CRLF", "wl 2\r\ndag 3\r\narc 0 1\r\narc 1 2\r\npath 0 1 2\r\n");
    (Wl, "mid-line #", "dag 3 # three\narc 0 1#x\n# whole line\narc 1 2 # y\npath 0 1 2#\n");
    (Wl, "leading and trailing spaces", "   dag 2   \n  arc   0    1  \n");
    (Wl, "blank lines", "\n\n  \ndag 2\n\n\narc 0 1\n\n");
    (Wl, "form feed padding", "\012dag 2\012\narc 0 1\n");
    (Wl, "hex 0x1f", "dag 0x1f\narc 0x1 0x2\n");
    (Wl, "plus sign +3", "dag +3\narc +0 +2\n");
    (Wl, "negative vertex -1", "dag 3\narc -1 2\n");
    (Wl, "negative count", "dag -1\n");
    (Wl, "underscore 1_000", "dag 1_000\narc 999 0\n");
    (Wl, "19-digit integer", "dag 3\narc 0 1000000000000000000\n");
    (Wl, "19-digit overflow", "dag 3\narc 0 9999999999999999999\n");
    (Wl, "20-digit integer", "dag 12345678901234567890\n");
    (Wl, "vertex count over the limit", "dag 1048577\n");
    (Wl, "vertex count max_int", "dag 4611686018427387903\n");
    (Wl, "lone minus", "dag 3\narc - 1\n");
    (Wl, "empty text", "");
    (Wl, "only comments", "# nothing\n   # here\n");
    (Wl, "missing dag header", "arc 0 1\n");
    (Wl, "vlabel before dag", "vlabel 0 a\ndag 1\n");
    (Wl, "path before dag", "path 0 1\ndag 2\n");
    (Wl, "duplicate dag header", "dag 2\ndag 3\n");
    (Wl, "duplicate wl header", "wl 2\nwl 2\ndag 1\n");
    (Wl, "wl header after dag", "dag 2\nwl 2\n");
    (Wl, "unsupported wl version", "wl 3\ndag 1\n");
    (Wl, "wl header not an integer", "wl two\n");
    (Wl, "vlabel out of range", "dag 2\nvlabel 2 x\n");
    (Wl, "self-loop", "dag 2\narc 1 1\n");
    (Wl, "duplicate arc", "dag 2\narc 0 1\narc 0 1\n");
    (Wl, "arc to a missing vertex", "dag 2\narc 0 2\n");
    (Wl, "directed cycle", "dag 3\narc 0 1\narc 1 2\narc 2 0\n");
    (Wl, "bad path: missing arc", "dag 3\narc 0 1\npath 0 2\n");
    (Wl, "bad path: one vertex", "dag 2\narc 0 1\npath 0\n");
    (Wl, "bad path: repeated vertex", "dag 3\narc 0 1\narc 1 2\npath 0 1 0\n");
    (Wl, "bad path: not an integer", "dag 2\narc 0 1\npath 0 x\n");
    (Wl, "unknown directive", "dag 2\nedge 0 1\n");
    (Wl, "arc with one end", "dag 2\narc 0\n");
    (* --- wlreq request files ----------------------------------------- *)
    (Req, "minimal", "wlreq 1\nreq 0 1\nreq 2 3\n");
    (Req, "headerless", "req 0 1\n");
    (Req, "CRLF, comments, integer spellings", "wlreq 1\r\nreq 0 1 # first\r\n\r\n# c\nreq 0x1 +2\n");
    (Req, "negative and underscore", "req -1 1_000\n");
    (Req, "empty text", "");
    (Req, "wlreq 2", "wlreq 2\nreq 0 1\n");
    (Req, "wlreq 0", "wlreq 0\n");
    (Req, "wlreq not an integer", "wlreq x\n");
    (Req, "wlreq header with two numbers", "wlreq 1 1\n");
    (Req, "duplicate wlreq header", "wlreq 1\nwlreq 1\n");
    (Req, "wlreq after a request", "req 0 1\nwlreq 1\n");
    (Req, "req 1", "wlreq 1\nreq 1\n");
    (Req, "req not an integer", "req a 1\n");
    (Req, "20-digit integer", "req 0 12345678901234567890\n");
    (Req, "tab inside a word", "req\t0 1\n");
    (Req, "unknown directive", "wlreq 1\nrequest 0 1\n");
    (* --- wlops op scripts -------------------------------------------- *)
    (Ops, "minimal", "wlops 1\npath 0 1 2\nremove 3\narc 4 5\n");
    (Ops, "empty text", "");
    (Ops, "headerless", "path 0 1\n");
    (Ops, "empty path", "path\n");
    (Ops, "CRLF, tab, comments", "wlops 1\r\n\tpath 0 1 # c\r\narc 0x1 +2\r\n");
    (Ops, "wlops 2", "wlops 2\n");
    (Ops, "wlops not an integer", "wlops one\n");
    (Ops, "duplicate wlops header", "wlops 1\nwlops 1\nremove 0\n");
    (Ops, "unknown op", "wlops 1\nsplice 1\n");
    (Ops, "remove with two ids", "remove 1 2\n");
    (Ops, "path not an integer", "path 0 x\n");
    (Ops, "arc not an integer", "arc 0x 1\n");
    (Ops, "20-digit integer", "remove 12345678901234567890\n");
  ]

let render format text =
  let result =
    match format with
    | Wl -> Result.map Serial.to_string (Serial.of_string text)
    | Req -> Result.map Routing.requests_to_string (Routing.requests_of_string text)
    | Ops -> Result.map Script.to_string (Script.of_string text)
  in
  match result with
  | Ok s -> s
  | Error e -> "error: " ^ Error.to_string e ^ "\n"

let () =
  List.iter
    (fun (format, name, text) ->
      let tag = match format with Wl -> "wl" | Req -> "wlreq" | Ops -> "wlops" in
      Printf.printf "== %s: %s\n<< \"%s\"\n%s" tag name (String.escaped text)
        (render format text))
    inputs
