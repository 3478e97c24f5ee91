//! Textual vulnerability specifications — user-authored signature plugins.
//!
//! In the real SEPAR, vulnerability signatures *are* Alloy specifications
//! that users can add at any time. This module gives the reproduction the
//! same property: a small Alloy-flavoured language in which a signature is
//! a set of witness declarations plus relational facts over the encoded
//! bundle vocabulary. A parsed [`TextualSignature`] is a fully-fledged
//! [`VulnerabilitySignature`] and can be registered like the built-ins.
//!
//! # Example
//!
//! The paper's Listing 5 (service launch), as a textual signature:
//!
//! ```text
//! vuln GeneratedServiceLaunch {
//!     launched: one Component
//! } {
//!     launched in exported
//!     launched in Activity + Service
//!     launched in MalIntent.canReceive
//!     some launched.pathSource & IccRes
//!     some MalIntent.extras
//! }
//! ```
//!
//! # Vocabulary
//!
//! Identifiers resolve, in order, to: witness declarations; the postulated
//! malicious atoms (`MalIntent`, `MalComp`, `MalFilter`, `MalApp`); and
//! the encoded bundle relations — unary domains `Component`,
//! `Application`, `Intent`, `Action`, `Permission`, `Resource`,
//! `Activity`, `Service`, `Receiver`, `Provider`, `installed`,
//! `exported`, `hijackable`, `SourceRes`, `SinkRes`, `IccRes`,
//! `ProtectedAction`; and the fields `app`, `sender`, `action`, `extras`,
//! `canReceive`, `malFilterActions`, `pathSource`, `pathSink`, `path`,
//! `enforces`, `usesPerm`, `appPerms`, `filterActions`.
//!
//! Operators follow Alloy: unary `~` (transpose) and `^` (closure) bind
//! tightest, then `.` (join), then `&`, then `+` / `-`. Formulas are
//! `e in e`, `e = e`, `some|no|one|lone e`, `not f`, `f and f`, `f or f`.
//!
//! # Footprint annotations
//!
//! A spec may end with a `footprint { capability ... }` clause naming
//! the [`SliceDemand`] capability classes its atoms range over (e.g.
//! `footprint { launchable_icc_entry }`). The clause is the author's
//! over-approximation claim (see [`crate::footprint`]); annotated specs
//! participate in relevance slicing, unannotated specs conservatively
//! range over the whole bundle.

use std::collections::BTreeSet;
use std::fmt;

use separ_analysis::model::AppModel;
use separ_analysis::slicing::SliceDemand;
use separ_logic::{Expr, Formula, LogicError, Problem, RelationDecl, RelationId, TupleSet};

use crate::encode::AtomRegistry;
use crate::exploit::{Exploit, VulnKind};
use crate::footprint::{Footprint, SignatureFootprint};
use crate::signature::{Synthesis, SynthesisContext, VulnerabilitySignature};

/// The relation names a specification may reference.
const VOCABULARY: &[&str] = &[
    "Component",
    "Application",
    "Intent",
    "Action",
    "Permission",
    "Resource",
    "Activity",
    "Service",
    "Receiver",
    "Provider",
    "installed",
    "exported",
    "hijackable",
    "SourceRes",
    "SinkRes",
    "IccRes",
    "ProtectedAction",
    "app",
    "sender",
    "action",
    "extras",
    "canReceive",
    "malFilterActions",
    "pathSource",
    "pathSink",
    "path",
    "enforces",
    "usesPerm",
    "appPerms",
    "filterActions",
];

const MAL_ATOMS: &[&str] = &["MalIntent", "MalComp", "MalFilter", "MalApp"];

/// A parse error with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spec error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Colon,
    Dot,
    Plus,
    Amp,
    Minus,
    Caret,
    Tilde,
    Equals,
}

/// One lexed token with its 1-based (line, column) source position.
type Spanned = (Tok, usize, usize);

fn lex(src: &str) -> Result<Vec<Spanned>, SpecError> {
    let mut out = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line = line.split("//").next().unwrap_or("");
        let mut chars = line.chars().enumerate().peekable();
        while let Some(&(i, c)) = chars.peek() {
            let col = i + 1;
            let tok = match c {
                c if c.is_whitespace() => {
                    chars.next();
                    continue;
                }
                '{' => Some(Tok::LBrace),
                '}' => Some(Tok::RBrace),
                '(' => Some(Tok::LParen),
                ')' => Some(Tok::RParen),
                ':' => Some(Tok::Colon),
                '.' => Some(Tok::Dot),
                '+' => Some(Tok::Plus),
                '&' => Some(Tok::Amp),
                '-' => Some(Tok::Minus),
                '^' => Some(Tok::Caret),
                '~' => Some(Tok::Tilde),
                '=' => Some(Tok::Equals),
                c if c.is_alphanumeric() || c == '_' => None,
                other => {
                    return Err(SpecError {
                        line: lineno + 1,
                        column: col,
                        message: format!("unexpected character '{other}'"),
                    })
                }
            };
            match tok {
                Some(t) => {
                    chars.next();
                    out.push((t, lineno + 1, col));
                }
                None => {
                    let mut ident = String::new();
                    while let Some(&(_, c)) = chars.peek() {
                        if c.is_alphanumeric() || c == '_' {
                            ident.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    out.push((Tok::Ident(ident), lineno + 1, col));
                }
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// AST & parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum EAst {
    Name(String),
    Join(Box<EAst>, Box<EAst>),
    Union(Box<EAst>, Box<EAst>),
    Intersect(Box<EAst>, Box<EAst>),
    Difference(Box<EAst>, Box<EAst>),
    Transpose(Box<EAst>),
    Closure(Box<EAst>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum FAst {
    In(EAst, EAst),
    Eq(EAst, EAst),
    Some(EAst),
    No(EAst),
    One(EAst),
    Lone(EAst),
    And(Box<FAst>, Box<FAst>),
    Or(Box<FAst>, Box<FAst>),
    Not(Box<FAst>),
}

/// Witness multiplicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mult {
    One,
    Some,
    Lone,
    Set,
}

#[derive(Debug, Clone)]
struct SpecAst {
    name: String,
    decls: Vec<(String, Mult, String)>,
    facts: Vec<FAst>,
    /// The optional `footprint { ... }` annotation's capability classes.
    footprint: Option<BTreeSet<SliceDemand>>,
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Witness names declared so far; facts validate identifiers against
    /// these plus the fixed vocabulary, at the offending token's position.
    decl_names: BTreeSet<String>,
}

impl Parser {
    /// The (line, column) of the current token — or of the last token
    /// when the input ended early.
    fn here(&self) -> (usize, usize) {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or((0, 0), |t| (t.1, t.2))
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, SpecError> {
        let (line, column) = self.here();
        Err(SpecError {
            line,
            column,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.0)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.0.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, tok: Tok) -> Result<(), SpecError> {
        if self.peek() == Some(&tok) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {tok:?}, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, SpecError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => {
                self.pos -= 1;
                self.err(format!("expected identifier, found {other:?}"))
            }
        }
    }

    fn spec(&mut self) -> Result<SpecAst, SpecError> {
        let kw = self.ident()?;
        if kw != "vuln" {
            return self.err("specification must start with 'vuln <Name>'");
        }
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut decls = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            let dname = self.ident()?;
            self.expect(Tok::Colon)?;
            let mut at = self.here();
            let mult_or_domain = self.ident()?;
            let (mult, domain) = match mult_or_domain.as_str() {
                "one" | "some" | "lone" | "set" => {
                    let mult = match mult_or_domain.as_str() {
                        "one" => Mult::One,
                        "some" => Mult::Some,
                        "lone" => Mult::Lone,
                        _ => Mult::Set,
                    };
                    at = self.here();
                    (mult, self.ident()?)
                }
                _ => (Mult::One, mult_or_domain),
            };
            if !VOCABULARY.contains(&domain.as_str()) {
                return Err(SpecError {
                    line: at.0,
                    column: at.1,
                    message: format!("unknown witness domain '{domain}' for '{dname}'"),
                });
            }
            self.decl_names.insert(dname.clone());
            decls.push((dname, mult, domain));
        }
        self.expect(Tok::RBrace)?;
        self.expect(Tok::LBrace)?;
        let mut facts = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            facts.push(self.formula()?);
        }
        self.expect(Tok::RBrace)?;
        let footprint = self.footprint_clause()?;
        if self.pos != self.toks.len() {
            return self.err("trailing tokens after specification");
        }
        Ok(SpecAst {
            name,
            decls,
            facts,
            footprint,
        })
    }

    /// The optional trailing `footprint { capability ... }` clause.
    fn footprint_clause(&mut self) -> Result<Option<BTreeSet<SliceDemand>>, SpecError> {
        if !matches!(self.peek(), Some(Tok::Ident(kw)) if kw == "footprint") {
            return Ok(None);
        }
        self.pos += 1;
        self.expect(Tok::LBrace)?;
        let mut demands = BTreeSet::new();
        while self.peek() != Some(&Tok::RBrace) {
            let (line, column) = self.here();
            let name = self.ident()?;
            match SliceDemand::from_name(&name) {
                Some(d) => {
                    demands.insert(d);
                }
                None => {
                    return Err(SpecError {
                        line,
                        column,
                        message: format!("unknown footprint capability '{name}'"),
                    })
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(Some(demands))
    }

    /// formula := conjunct (('and'|'or') conjunct)*
    fn formula(&mut self) -> Result<FAst, SpecError> {
        let mut lhs = self.conjunct()?;
        while let Some(Tok::Ident(kw)) = self.peek() {
            match kw.as_str() {
                "and" => {
                    self.pos += 1;
                    let rhs = self.conjunct()?;
                    lhs = FAst::And(Box::new(lhs), Box::new(rhs));
                }
                "or" => {
                    self.pos += 1;
                    let rhs = self.conjunct()?;
                    lhs = FAst::Or(Box::new(lhs), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(lhs)
    }

    /// conjunct := 'not' conjunct | 'some|no|one|lone' expr
    ///           | expr ('in' | '=') expr | '(' formula ')'
    fn conjunct(&mut self) -> Result<FAst, SpecError> {
        if let Some(Tok::Ident(kw)) = self.peek() {
            match kw.as_str() {
                "not" => {
                    self.pos += 1;
                    return Ok(FAst::Not(Box::new(self.conjunct()?)));
                }
                "some" | "no" | "one" | "lone" => {
                    let kw = kw.clone();
                    self.pos += 1;
                    let e = self.expr()?;
                    return Ok(match kw.as_str() {
                        "some" => FAst::Some(e),
                        "no" => FAst::No(e),
                        "one" => FAst::One(e),
                        _ => FAst::Lone(e),
                    });
                }
                _ => {}
            }
        }
        // A parenthesized *formula* or a relational comparison.
        let checkpoint = self.pos;
        if self.peek() == Some(&Tok::LParen) {
            // Try formula-in-parens first.
            self.pos += 1;
            if let Ok(f) = self.formula() {
                if self.peek() == Some(&Tok::RParen) {
                    self.pos += 1;
                    return Ok(f);
                }
            }
            self.pos = checkpoint;
        }
        let lhs = self.expr()?;
        match self.next() {
            Some(Tok::Ident(kw)) if kw == "in" => {
                let rhs = self.expr()?;
                Ok(FAst::In(lhs, rhs))
            }
            Some(Tok::Equals) => {
                let rhs = self.expr()?;
                Ok(FAst::Eq(lhs, rhs))
            }
            other => {
                self.pos -= usize::from(other.is_some());
                self.err("expected 'in' or '=' after expression")
            }
        }
    }

    /// expr := term (('+'|'-') term)*
    fn expr(&mut self) -> Result<EAst, SpecError> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    let rhs = self.term()?;
                    lhs = EAst::Union(Box::new(lhs), Box::new(rhs));
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    let rhs = self.term()?;
                    lhs = EAst::Difference(Box::new(lhs), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(lhs)
    }

    /// term := joined ('&' joined)*
    fn term(&mut self) -> Result<EAst, SpecError> {
        let mut lhs = self.joined()?;
        while self.peek() == Some(&Tok::Amp) {
            self.pos += 1;
            let rhs = self.joined()?;
            lhs = EAst::Intersect(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// joined := atom ('.' atom)*
    fn joined(&mut self) -> Result<EAst, SpecError> {
        let mut lhs = self.atom()?;
        while self.peek() == Some(&Tok::Dot) {
            self.pos += 1;
            let rhs = self.atom()?;
            lhs = EAst::Join(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// atom := '~' atom | '^' atom | IDENT | '(' expr ')'
    fn atom(&mut self) -> Result<EAst, SpecError> {
        match self.peek() {
            Some(Tok::Tilde) => {
                self.pos += 1;
                Ok(EAst::Transpose(Box::new(self.atom()?)))
            }
            Some(Tok::Caret) => {
                self.pos += 1;
                Ok(EAst::Closure(Box::new(self.atom()?)))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(_)) => {
                let (line, column) = self.here();
                let n = self.ident()?;
                if !(self.decl_names.contains(&n)
                    || MAL_ATOMS.contains(&n.as_str())
                    || VOCABULARY.contains(&n.as_str()))
                {
                    return Err(SpecError {
                        line,
                        column,
                        message: format!("unknown identifier '{n}'"),
                    });
                }
                Ok(EAst::Name(n))
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// The signature
// ---------------------------------------------------------------------

/// A user-authored signature parsed from the textual language.
#[derive(Debug, Clone)]
pub struct TextualSignature {
    ast: SpecAst,
}

impl TextualSignature {
    /// Parses a specification. The vocabulary is validated during the
    /// parse — unknown witness domains, fact identifiers and footprint
    /// capabilities are rejected with the offending token's exact line
    /// and column — so synthesis can't fail on unknown names.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for syntax errors, unknown identifiers, or
    /// witness declarations over non-unary domains.
    pub fn parse(source: &str) -> Result<TextualSignature, SpecError> {
        let toks = lex(source)?;
        let mut parser = Parser {
            toks,
            pos: 0,
            decl_names: BTreeSet::new(),
        };
        let ast = parser.spec()?;
        Ok(TextualSignature { ast })
    }

    /// The signature's declared name.
    pub fn spec_name(&self) -> &str {
        &self.ast.name
    }
}

struct Resolver<'e> {
    atoms: &'e AtomRegistry,
    problem: &'e Problem,
    witnesses: Vec<(String, RelationId)>,
}

impl Resolver<'_> {
    fn resolve_e(&self, e: &EAst) -> Expr {
        match e {
            EAst::Name(n) => {
                if let Some((_, r)) = self.witnesses.iter().find(|(w, _)| w == n) {
                    return Expr::relation(*r);
                }
                match n.as_str() {
                    "MalIntent" => Expr::atom(self.atoms.mal_intent),
                    "MalComp" => Expr::atom(self.atoms.mal_comp),
                    "MalFilter" => Expr::atom(self.atoms.mal_filter),
                    "MalApp" => Expr::atom(self.atoms.mal_app),
                    other => Expr::relation(
                        self.problem
                            .relation_by_name(other)
                            .expect("vocabulary validated at parse time"),
                    ),
                }
            }
            EAst::Join(a, b) => self.resolve_e(a).join(&self.resolve_e(b)),
            EAst::Union(a, b) => self.resolve_e(a).union(&self.resolve_e(b)),
            EAst::Intersect(a, b) => self.resolve_e(a).intersect(&self.resolve_e(b)),
            EAst::Difference(a, b) => self.resolve_e(a).difference(&self.resolve_e(b)),
            EAst::Transpose(a) => self.resolve_e(a).transpose(),
            EAst::Closure(a) => self.resolve_e(a).closure(),
        }
    }

    fn resolve_f(&self, f: &FAst) -> Formula {
        match f {
            FAst::In(a, b) => self.resolve_e(a).in_(&self.resolve_e(b)),
            FAst::Eq(a, b) => self.resolve_e(a).equal(&self.resolve_e(b)),
            FAst::Some(e) => self.resolve_e(e).some(),
            FAst::No(e) => self.resolve_e(e).no(),
            FAst::One(e) => self.resolve_e(e).one(),
            FAst::Lone(e) => self.resolve_e(e).lone(),
            FAst::And(a, b) => Formula::and([self.resolve_f(a), self.resolve_f(b)]),
            FAst::Or(a, b) => Formula::or([self.resolve_f(a), self.resolve_f(b)]),
            FAst::Not(a) => self.resolve_f(a).not(),
        }
    }
}

/// Human-readable description of a bound atom for exploit bindings.
fn describe_atom(
    atoms: &AtomRegistry,
    apps: &[AppModel],
    atom: separ_logic::Atom,
) -> (String, Option<(String, String)>) {
    if let Some((ai, ci)) = atoms.component_of(atom) {
        let pkg = apps[ai].package.clone();
        let class = apps[ai].components[ci].class.clone();
        return (format!("{pkg}/{class}"), Some((pkg, class)));
    }
    if let Some((ai, ci, ii)) = atoms.intent_of(atom) {
        return (
            format!(
                "{}/{}#intent{}",
                apps[ai].package, apps[ai].components[ci].class, ii
            ),
            None,
        );
    }
    if let Some(a) = atoms.action_of(atom) {
        return (a.to_string(), None);
    }
    if let Some(r) = atoms.resource_of(atom) {
        return (r.name().to_string(), None);
    }
    if let Some(p) = atoms.permission_of(atom) {
        return (p.to_string(), None);
    }
    if let Some(i) = atoms.apps.iter().position(|&a| a == atom) {
        return (apps[i].package.clone(), None);
    }
    ("<unknown>".to_string(), None)
}

impl SignatureFootprint for TextualSignature {
    /// A `footprint { ... }` annotation becomes a demand-only footprint
    /// (the malicious surface is conservatively kept); unannotated specs
    /// range over the whole bundle.
    fn footprint(&self) -> Footprint {
        match &self.ast.footprint {
            Some(demands) => Footprint::for_demands(demands.iter().copied()),
            None => Footprint::everything(),
        }
    }
}

impl VulnerabilitySignature for TextualSignature {
    fn kind(&self) -> VulnKind {
        VulnKind::Custom
    }

    fn name(&self) -> &'static str {
        // Trait wants a static str; the dynamic name is carried by the
        // exploits themselves.
        "textual-signature"
    }

    fn synthesize_with(&self, ctx: &SynthesisContext<'_>) -> Result<Synthesis, LogicError> {
        let (apps, atoms) = (ctx.apps, ctx.base.atoms());
        let mut problem = ctx.base.problem();
        // Install witnesses: upper bound = the domain relation's upper
        // bound, minus the postulated malicious atoms (witnesses pick
        // *real* entities to report).
        let mal = [
            atoms.mal_intent,
            atoms.mal_comp,
            atoms.mal_filter,
            atoms.mal_app,
        ];
        let mut witnesses = Vec::new();
        for (dname, mult, domain) in &self.ast.decls {
            let domain_rel = problem
                .relation_by_name(domain)
                .expect("vocabulary validated at parse time");
            let decl = problem.decl(domain_rel);
            if decl.arity() != 1 {
                // Parse-time vocabulary check admits binary fields as
                // domains; reject here with an empty synthesis rather
                // than a panic.
                return Ok(Synthesis::default());
            }
            let mut upper = TupleSet::new(1);
            for t in decl.upper().iter() {
                if !mal.contains(&t.atoms()[0]) {
                    upper.insert(t.clone());
                }
            }
            if upper.is_empty() {
                return Ok(Synthesis::default());
            }
            let w = problem.relation(RelationDecl::free(format!("W_{dname}"), upper));
            let we = Expr::relation(w);
            match mult {
                Mult::One => problem.fact(we.one()),
                Mult::Some => problem.fact(we.some()),
                Mult::Lone => problem.fact(we.lone()),
                Mult::Set => {}
            }
            witnesses.push((dname.clone(), w));
        }
        // Resolve all facts against the immutable encoding first, then
        // install them.
        let resolved: Vec<Formula> = {
            let resolver = Resolver {
                atoms,
                problem: &problem,
                witnesses: witnesses.clone(),
            };
            self.ast
                .facts
                .iter()
                .map(|f| resolver.resolve_f(f))
                .collect()
        };
        for f in resolved {
            problem.fact(f);
        }
        let mut finder = problem.model_finder_from(ctx.base.base())?;
        let mut exploits: Vec<Exploit> = Vec::new();
        while exploits.len() < ctx.limit {
            let Some(instance) = finder.next_minimal_model() else {
                break;
            };
            let mut bindings = Vec::new();
            let mut guarded_app = String::new();
            let mut guarded_component = String::new();
            for (dname, w) in &witnesses {
                for t in instance.tuples(*w).iter() {
                    let (desc, comp) = describe_atom(atoms, apps, t.atoms()[0]);
                    if let Some((pkg, class)) = comp {
                        if guarded_component.is_empty() {
                            guarded_app = pkg;
                            guarded_component = class;
                        }
                    }
                    bindings.push((dname.clone(), desc));
                }
            }
            let e = Exploit::Custom {
                name: self.ast.name.clone(),
                bindings,
                guarded_app,
                guarded_component,
            };
            if !exploits.contains(&e) {
                exploits.push(e);
            }
        }
        Ok(Synthesis {
            exploits,
            construction: finder.construction_time(),
            solving: finder.solve_time(),
            primary_vars: finder.num_primary_vars(),
            cnf_clauses: finder.cnf_clauses(),
            shared_base: finder.used_shared_base(),
            solver: finder.solver_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::tests_support::{app, comp, sent};
    use crate::vulns::ComponentLaunchSignature;
    use separ_android::api::IccMethod;
    use separ_android::types::{perm, FlowPath, Resource};
    use separ_dex::manifest::{ComponentKind, IntentFilterDecl};

    /// The paper's Listing 5 as a textual spec.
    const SERVICE_LAUNCH: &str = r"
        vuln GeneratedServiceLaunch {
            launched: one Component
        } {
            launched in exported
            launched in Activity + Service
            launched in MalIntent.canReceive
            some launched.pathSource & IccRes
            some MalIntent.extras
        }
    ";

    fn motivating_bundle() -> Vec<AppModel> {
        let mut lf = comp("LLocationFinder;", ComponentKind::Service);
        lf.paths
            .insert(FlowPath::new(Resource::Location, Resource::Icc));
        lf.sent_intents.push(sent(
            Some("showLoc"),
            IccMethod::StartService,
            &[Resource::Location],
        ));
        let mut rf = comp("LRouteFinder;", ComponentKind::Service);
        rf.filters.push(IntentFilterDecl::for_actions(["showLoc"]));
        rf.exported = true;
        let mut ms = comp("LMessageSender;", ComponentKind::Service);
        ms.exported = true;
        ms.paths.insert(FlowPath::new(Resource::Icc, Resource::Sms));
        ms.used_permissions.insert(perm::SEND_SMS.into());
        let mut app2 = app("com.messenger", vec![ms]);
        app2.uses_permissions.insert(perm::SEND_SMS.into());
        vec![app("com.nav", vec![lf, rf]), app2]
    }

    #[test]
    fn parses_the_listing_5_spec() {
        let sig = TextualSignature::parse(SERVICE_LAUNCH).expect("parses");
        assert_eq!(sig.spec_name(), "GeneratedServiceLaunch");
    }

    #[test]
    fn textual_listing_5_matches_the_builtin_plugin() {
        let apps = motivating_bundle();
        let textual = TextualSignature::parse(SERVICE_LAUNCH)
            .expect("parses")
            .synthesize(&apps, 16)
            .expect("well-typed");
        let builtin = ComponentLaunchSignature
            .synthesize(&apps, 16)
            .expect("well-typed");
        let textual_targets: BTreeSet<&str> = textual
            .exploits
            .iter()
            .map(|e| e.guarded_component())
            .collect();
        let builtin_targets: BTreeSet<&str> = builtin
            .exploits
            .iter()
            .map(|e| e.guarded_component())
            .collect();
        assert_eq!(
            textual_targets, builtin_targets,
            "the textual spec is semantically the built-in Listing 5"
        );
        match &textual.exploits[0] {
            Exploit::Custom { name, bindings, .. } => {
                assert_eq!(name, "GeneratedServiceLaunch");
                assert!(bindings
                    .iter()
                    .any(|(d, v)| d == "launched" && v.contains("LMessageSender;")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn custom_escalation_style_spec_with_two_witnesses() {
        // An unguarded dangerous capability, written from scratch.
        let src = r"
            vuln UnguardedCapability {
                victim: one Component
                cap: one Permission
            } {
                victim in exported
                cap in victim.usesPerm
                no cap & victim.enforces
                victim in MalIntent.canReceive
            }
        ";
        let sig = TextualSignature::parse(src).expect("parses");
        let syn = sig.synthesize(&motivating_bundle(), 8).expect("well-typed");
        assert!(syn.exploits.iter().any(|e| matches!(
            e,
            Exploit::Custom { bindings, .. }
                if bindings.iter().any(|(d, v)| d == "cap" && v == perm::SEND_SMS)
        )));
    }

    #[test]
    fn unsatisfiable_spec_yields_nothing() {
        let src = r"
            vuln Impossible {
                c: one Component
            } {
                c in exported
                no c & exported
            }
        ";
        let sig = TextualSignature::parse(src).expect("parses");
        let syn = sig.synthesize(&motivating_bundle(), 8).expect("well-typed");
        assert!(syn.exploits.is_empty());
    }

    #[test]
    fn syntax_and_vocabulary_errors_are_reported() {
        for (src, needle) in [
            ("vuln {", "identifier"),
            ("oops X {} {}", "must start with 'vuln"),
            ("vuln X { w: one Nonexistent } {}", "unknown witness domain"),
            (
                "vuln X { w: one Component } { w in nonsense }",
                "unknown identifier",
            ),
            (
                "vuln X { w: one Component } { w exported }",
                "expected 'in' or '='",
            ),
            (
                "vuln X { w: one Component } { some w } trailing",
                "trailing",
            ),
        ] {
            let err = TextualSignature::parse(src).expect_err(src);
            assert!(
                err.message.contains(needle),
                "{src}: expected '{needle}' in '{}'",
                err.message
            );
        }
    }

    #[test]
    fn errors_carry_exact_line_and_column() {
        // Unknown fact identifier: `nonsense` starts at line 2, column 8.
        let err = TextualSignature::parse("vuln X { w: one Component }\n{ w in nonsense }")
            .expect_err("unknown identifier");
        assert_eq!((err.line, err.column), (2, 8), "{err}");
        assert!(err.message.contains("unknown identifier"));
        assert_eq!(
            err.to_string(),
            "spec error at line 2, column 8: unknown identifier 'nonsense'"
        );
        // Unknown witness domain: `Nonexistent` starts at line 2, column 10.
        let err = TextualSignature::parse("vuln X {\n  w: one Nonexistent\n} {}")
            .expect_err("unknown domain");
        assert_eq!((err.line, err.column), (2, 10), "{err}");
        // Lexer errors carry the bad character's position too.
        let err = TextualSignature::parse("vuln X { w: one Component } {\n   w in $bad\n}")
            .expect_err("bad character");
        assert_eq!((err.line, err.column), (2, 9), "{err}");
        // Unknown footprint capability: `bogus` at line 2, column 13.
        let err =
            TextualSignature::parse("vuln X { w: one Component } { some w }\nfootprint { bogus }")
                .expect_err("unknown capability");
        assert_eq!((err.line, err.column), (2, 13), "{err}");
        assert!(err.message.contains("unknown footprint capability"));
    }

    #[test]
    fn footprint_annotations_slice_without_changing_results() {
        use crate::signature::SignatureRegistry;
        use crate::{Separ, VulnKind};
        let annotated = format!("{SERVICE_LAUNCH} footprint {{ launchable_icc_entry }}");
        let sig = TextualSignature::parse(&annotated).expect("parses");
        let fp = sig.footprint();
        assert!(!fp.is_everything());
        assert!(fp
            .demands
            .contains(&separ_analysis::slicing::SliceDemand::LaunchableIccEntry));
        // Unannotated specs keep the conservative whole-bundle footprint.
        assert!(TextualSignature::parse(SERVICE_LAUNCH)
            .expect("parses")
            .footprint()
            .is_everything());
        // The annotation must not change what the pipeline synthesizes.
        let run = |spec: &str| {
            let mut registry = SignatureRegistry::empty();
            registry.register(Box::new(TextualSignature::parse(spec).expect("parses")));
            let report = Separ::with_registry(registry)
                .analyze_models(motivating_bundle())
                .expect("succeeds");
            report
                .exploits_of(VulnKind::Custom)
                .map(|e| format!("{e:?}"))
                .collect::<BTreeSet<String>>()
        };
        let sliced = run(&annotated);
        assert!(!sliced.is_empty());
        assert_eq!(sliced, run(SERVICE_LAUNCH));
    }

    #[test]
    fn operators_compose_in_specs() {
        // Exercise ~, ^, -, parentheses and 'not'/'or' in one formula.
        let src = r"
            vuln Weird {
                c: one Component
            } {
                c in (exported - Provider) and (some c.pathSink or not one c.app)
                c in MalIntent.canReceive
                some ^path.IccRes // nonsensical but well-formed
            }
        ";
        let sig = TextualSignature::parse(src);
        // ^path is ternary: parse succeeds, synthesis reports the logic
        // error rather than panicking.
        let sig = sig.expect("parses");
        let r = sig.synthesize(&motivating_bundle(), 4);
        assert!(r.is_err(), "ternary closure is ill-typed: {r:?}");
    }

    #[test]
    fn registered_textual_signature_flows_through_the_pipeline() {
        use crate::signature::SignatureRegistry;
        use crate::{Separ, VulnKind};
        let mut registry = SignatureRegistry::standard();
        registry.register(Box::new(
            TextualSignature::parse(SERVICE_LAUNCH).expect("parses"),
        ));
        let report = Separ::with_registry(registry)
            .analyze_models(motivating_bundle())
            .expect("succeeds");
        let custom: Vec<_> = report.exploits_of(VulnKind::Custom).collect();
        assert!(!custom.is_empty());
        // And a policy was derived for the custom finding.
        assert!(report
            .policies
            .iter()
            .any(|p| p.vulnerability == "GeneratedServiceLaunch"));
    }
}
