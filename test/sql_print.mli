(** Printing sqlx ASTs back to concrete syntax: the parser's round-trip
    oracle.

    The output always re-parses, and parsing it yields the original AST
    (property-tested): [parse (to_sql s) = s] for every statement whose
    identifiers are lexically valid. *)

open Expirel_sqlx

val value : Expirel_core.Value.t -> string
(** A literal in source syntax (strings quoted and escaped, floats with
    enough digits to round-trip). *)

val cond : Ast.cond -> string
val query : Ast.query -> string
val statement : Ast.statement -> string
