(** Hand-written lexer for the sqlx dialect.

    Identifiers are [\[A-Za-z_\]\[A-Za-z0-9_\]*]; keywords are
    case-insensitive; strings are single-quoted with [''] as the escape
    for a quote; [--] starts a comment to end of line. *)

exception Error of string * int
(** Message and byte offset. *)

val tokenize : string -> (Token.t * int) list
(** Tokens with their starting offsets, ending with [Token.Eof].
    @raise Error on an unexpected character or unterminated string *)

val split_statements : string -> string list
(** The statements of a script, split at its [;] tokens — never at a
    [;] inside a string literal or a comment — each trimmed, without
    its terminator, and starting at its first token; empty statements
    are dropped.  Never raises: a character the lexer rejects stays in
    its statement (a client-side command such as [ADD SHARD host:port]
    keeps its colon), and an unterminated string runs to the end of
    the text, so whoever parses it reports the error once. *)
