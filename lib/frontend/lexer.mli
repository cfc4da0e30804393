(** Hand-written lexer for MiniFort source text. *)

type t

(** Create a lexer over a whole source string.  Each lexical error is
    passed to [report] (default: raise {!Loc.Error}); when [report]
    returns, the lexer resynchronizes at the next end of line, so every
    malformed literal in the file is reported. *)
val create : ?file:string -> ?report:(Loc.t -> string -> unit) -> string -> t

(** Next token with its starting location.  After the end of input, returns
    [EOF] forever. *)
val next : t -> Token.t * Loc.t

(** Tokenize an entire source string by pulling {!next} until [EOF]; the
    result ends with [EOF].  Raises {!Loc.Error} on malformed input. *)
val tokenize : ?file:string -> string -> (Token.t * Loc.t) list
