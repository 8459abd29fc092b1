//! Mailbox automation rules.
//!
//! §2 of the paper lists, among the webmail capabilities criminals can
//! exploit, the ability to "organize their email by placing related
//! messages in folders, or assigning them descriptive labels. Such
//! operations can be automated by creating rules that automatically
//! process received emails." Rules matter for two reasons:
//!
//! * the legitimate owner's rules are part of what makes an account look
//!   *lived-in* to an attacker assessing it;
//! * an attacker-created rule (auto-forward, auto-archive of security
//!   notices) is a classic persistence trick — the paper observed none,
//!   but the capability must exist for that observation to mean anything.
//!
//! Rules read a message's sender, subject and body as string slices, so
//! they run on a mailbox's text arena in place.

/// What part of a message a rule matches on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Matcher {
    /// Case-insensitive substring of the sender address.
    FromContains(String),
    /// Case-insensitive substring of the subject.
    SubjectContains(String),
    /// Case-insensitive substring of the body.
    BodyContains(String),
}

impl Matcher {
    /// Whether this matcher fires for a message with this sender,
    /// subject and body.
    pub fn matches(&self, from: &str, subject: &str, body: &str) -> bool {
        let has =
            |haystack: &str, needle: &str| haystack.to_lowercase().contains(&needle.to_lowercase());
        match self {
            Matcher::FromContains(n) => has(from, n),
            Matcher::SubjectContains(n) => has(subject, n),
            Matcher::BodyContains(n) => has(body, n),
        }
    }
}

/// What a rule does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleAction {
    /// Apply a label.
    ApplyLabel(String),
    /// Mark the message as read (skip-the-inbox semantics).
    MarkRead,
    /// Star the message.
    Star,
}

/// One automation rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// When the rule fires.
    pub matcher: Matcher,
    /// What it does.
    pub action: RuleAction,
}

/// A per-account ordered rule list.
#[derive(Clone, Debug, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Append a rule (rules apply in insertion order).
    pub fn add(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The actions that fire for a message with this sender, subject
    /// and body, in rule order.
    pub fn actions_for(&self, from: &str, subject: &str, body: &str) -> Vec<&RuleAction> {
        self.rules
            .iter()
            .filter(|r| r.matcher.matches(from, subject, body))
            .map(|r| &r.action)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matchers_are_case_insensitive() {
        let m = Matcher::SubjectContains("Invoice".into());
        assert!(m.matches("a@x", "your INVOICE is ready", ""));
        assert!(!m.matches("a@x", "lunch", ""));
        let f = Matcher::FromContains("payroll@".into());
        assert!(f.matches("PAYROLL@corp.example", "x", ""));
        let b = Matcher::BodyContains("wire transfer".into());
        assert!(b.matches("a@x", "s", "the Wire Transfer cleared"));
    }

    #[test]
    fn rules_fire_in_order() {
        let mut rs = RuleSet::new();
        rs.add(Rule {
            matcher: Matcher::SubjectContains("report".into()),
            action: RuleAction::ApplyLabel("reports".into()),
        });
        rs.add(Rule {
            matcher: Matcher::FromContains("boss@".into()),
            action: RuleAction::Star,
        });
        let actions = rs.actions_for("boss@corp.example", "weekly report", "numbers inside");
        assert_eq!(
            actions,
            vec![&RuleAction::ApplyLabel("reports".into()), &RuleAction::Star]
        );
    }

    #[test]
    fn non_matching_rules_do_nothing() {
        let mut rs = RuleSet::new();
        rs.add(Rule {
            matcher: Matcher::BodyContains("bitcoin".into()),
            action: RuleAction::MarkRead,
        });
        assert!(rs.actions_for("a@x", "s", "plain mail").is_empty());
        assert_eq!(rs.len(), 1);
        assert!(!rs.is_empty());
    }
}
