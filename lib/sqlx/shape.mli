(** The literal shape of a statement text: the text with each literal
    replaced by a typed slot.  Texts of one shape parse to one
    statement but for their literals, so the statement cache keys on
    the shape, parses a shape once into a {!template}, and binds each
    later text's literals into it.

    {!scan} is one pass over the bytes, delimiting literals exactly as
    {!Lexer.tokenize} does (an integer or a float, either after a
    [-]; a quoted string with [''] for a quote) and copying every other
    byte, so two texts with one key lex to the same tokens but for
    their literals.  [TRUE], [FALSE] and [NULL] are keywords of the
    shape, not slots. *)

open Expirel_core

type t = {
  key : string;
      (** the text with each literal replaced by a slot naming its
          type, every other byte as written *)
  literals : Value.t array;
      (** the literals in source order: [Int], [Float] or [Str] *)
}

val scan : string -> t option
(** [None] for a text the lexer would reject within a literal (a [-]
    not starting a number, an unterminated string, an integer beyond
    the native range) or that holds the slot marker byte [\000]: the
    caller parses it and gets the parser's answer. *)

type template
(** One parse of a shape, and where its literals sit. *)

val template : Ast.statement -> Value.t array -> template * Value.t array
(** [template s literals]: the template of a text that parsed to [s]
    and scanned to [literals], and the literals [s] holds, in source
    order — the very [Value.t]s of its condition operands and INSERT
    values, so a plan lowered from [s] holds them too.  When [s]'s
    literal sites do not line up with [literals] (a bare [TICK] reads
    as [TICK 1]), the template binds only [literals] themselves. *)

val bind : template -> Value.t array -> Ast.statement option
(** The template's statement with [literals] in its slots, in source
    order: the statement {!Parser.parse_statement} reads from a text of
    the template's shape with those literals, each value operand and
    INSERT value being the very [Value.t] of [literals].  [None] when
    they do not bind: a [SAMPLE] size below 1 or an [APPROX_COUNT]
    bound outside (0, 1), which the parser refuses. *)

(** How a plan made from one binding of a template serves another. *)
type rebinding =
  | Same  (** as it is: the planned literals are equal *)
  | Subst of (Value.t -> Value.t)
      (** with each constant that is one of the made-from literals (by
          pointer) replaced by the new literal in its slot — in every
          planned value slot, equal ones too, so what it makes holds
          exactly the new literals *)
  | Replan
      (** not at all: a planned [SAMPLE] size or [APPROX_COUNT] bound
          differs *)

val rebinding : template -> made_from:Value.t array -> Value.t array -> rebinding
(** [rebinding tpl ~made_from literals]: for a plan made from the
    template bound to [made_from] (the literals {!template} answered,
    or a text's scanned literals), serving it bound to [literals].
    Only the literals of the part that plans count: a query's [q] (not
    its [LIMIT] or [AT]), an EXPLAIN's query, a DELETE's condition. *)
