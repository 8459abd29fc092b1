//! Browser/OS user agents and server-side fingerprinting.
//!
//! Figure 5 of the paper breaks accesses down by browser and operating
//! system *as fingerprinted by Google*. Two mechanisms matter:
//!
//! * the **user-agent string**, which identifies the browser — and which
//!   sophisticated attackers simply omit ("about 50% of accesses to
//!   accounts leaked through paste sites were not identifiable", and
//!   *all* malware-outlet accesses presented unknown browsers);
//! * **passive system fingerprinting** (TCP/TLS characteristics), which
//!   can often still reveal the OS even when the UA is empty — which is
//!   why the paper sees "unknown browser" accesses that nevertheless run
//!   Windows.
//!
//! [`ClientConfig`] is what an attacker *chooses*; [`Fingerprint`] is what
//! the service *observes*. The gap between the two is the evasion the
//! paper measures.

use pwnd_sim::Rng;
use std::fmt;

/// Browsers distinguished by the paper's Figure 5a.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Browser {
    /// Google Chrome.
    Chrome,
    /// Mozilla Firefox.
    Firefox,
    /// Opera.
    Opera,
    /// Microsoft Edge.
    Edge,
    /// Internet Explorer.
    Explorer,
    /// Iceweasel (Debian-branded Firefox).
    Iceweasel,
    /// Vivaldi.
    Vivaldi,
    /// Not identifiable (empty or mangled user agent).
    Unknown,
}

impl Browser {
    /// All identifiable browsers (excludes [`Browser::Unknown`]).
    pub const IDENTIFIABLE: [Browser; 7] = [
        Browser::Chrome,
        Browser::Firefox,
        Browser::Opera,
        Browser::Edge,
        Browser::Explorer,
        Browser::Iceweasel,
        Browser::Vivaldi,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Browser::Chrome => "Chrome",
            Browser::Firefox => "Firefox",
            Browser::Opera => "Opera",
            Browser::Edge => "Edge",
            Browser::Explorer => "Explorer",
            Browser::Iceweasel => "Iceweasel",
            Browser::Vivaldi => "Vivaldi",
            Browser::Unknown => "Unknown",
        }
    }
}

impl fmt::Display for Browser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Operating systems distinguished by the paper's Figure 5b.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Os {
    /// Microsoft Windows.
    Windows,
    /// Apple Mac OS X.
    MacOsX,
    /// Desktop Linux.
    Linux,
    /// Android.
    Android,
    /// Chrome OS.
    ChromeOs,
    /// Not identifiable.
    Unknown,
}

impl Os {
    /// All identifiable operating systems (excludes [`Os::Unknown`]).
    pub const IDENTIFIABLE: [Os; 5] = [
        Os::Windows,
        Os::MacOsX,
        Os::Linux,
        Os::Android,
        Os::ChromeOs,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Os::Windows => "Windows",
            Os::MacOsX => "Mac OSX",
            Os::Linux => "Linux",
            Os::Android => "Android",
            Os::ChromeOs => "Chrome OS",
            Os::Unknown => "Unknown",
        }
    }
}

impl fmt::Display for Os {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the client actually runs and what it chooses to reveal.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientConfig {
    /// The browser the attacker actually uses.
    pub browser: Browser,
    /// The OS the attacker's machine actually runs.
    pub os: Os,
    /// Present an empty/mangled user agent to defeat UA parsing.
    pub hide_user_agent: bool,
    /// Additionally defeat passive system fingerprinting (patched network
    /// stack, anti-fingerprint browser). Rare; implies `hide_user_agent`
    /// in every profile we ship.
    pub spoof_system: bool,
}

impl ClientConfig {
    /// An ordinary, fully fingerprintable client.
    pub fn plain(browser: Browser, os: Os) -> ClientConfig {
        ClientConfig {
            browser,
            os,
            hide_user_agent: false,
            spoof_system: false,
        }
    }

    /// A stealth client: empty UA, OS still passively fingerprintable.
    pub fn stealth(browser: Browser, os: Os) -> ClientConfig {
        ClientConfig {
            browser,
            os,
            hide_user_agent: true,
            spoof_system: false,
        }
    }
}

/// Render a plausible user-agent string for a browser/OS pair.
pub fn render_user_agent(browser: Browser, os: Os) -> String {
    let platform = match os {
        Os::Windows => "Windows NT 6.1; Win64; x64",
        Os::MacOsX => "Macintosh; Intel Mac OS X 10_10_5",
        Os::Linux => "X11; Linux x86_64",
        Os::Android => "Linux; Android 5.1; Nexus 5 Build/LMY48B",
        Os::ChromeOs => "X11; CrOS x86_64 7262.57.0",
        Os::Unknown => "compatible",
    };
    // Every template is static text around a single platform insertion,
    // so the string is built with one exact-size allocation instead of
    // formatter machinery — this runs once per simulated connection.
    let (prefix, suffix): (&str, &str) = match browser {
        Browser::Chrome => (
            "Mozilla/5.0 (",
            ") AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.85 Safari/537.36",
        ),
        Browser::Firefox => ("Mozilla/5.0 (", "; rv:40.0) Gecko/20100101 Firefox/40.0"),
        Browser::Opera => (
            "Mozilla/5.0 (",
            ") AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.85 Safari/537.36 OPR/32.0.1948.25",
        ),
        Browser::Edge => (
            "Mozilla/5.0 (",
            ") AppleWebKit/537.36 (KHTML, like Gecko) Chrome/42.0.2311.135 Safari/537.36 Edge/12.10240",
        ),
        Browser::Explorer => ("Mozilla/5.0 (", "; Trident/7.0; rv:11.0) like Gecko"),
        Browser::Iceweasel => ("Mozilla/5.0 (", "; rv:38.0) Gecko/20100101 Iceweasel/38.2.1"),
        Browser::Vivaldi => (
            "Mozilla/5.0 (",
            ") AppleWebKit/537.36 (KHTML, like Gecko) Chrome/44.0.2403.155 Safari/537.36 Vivaldi/1.0.252.3",
        ),
        Browser::Unknown => return String::new(),
    };
    let mut ua = String::with_capacity(prefix.len() + platform.len() + suffix.len());
    ua.push_str(prefix);
    ua.push_str(platform);
    ua.push_str(suffix);
    ua
}

/// What the server observed about a client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Browser as identified from the user-agent string.
    pub browser: Browser,
    /// OS as identified from the UA or passive fingerprinting.
    pub os: Os,
}

/// Server-side fingerprinting of a connecting client: parse the UA string
/// for the browser, fall back to passive system fingerprinting for the OS.
///
/// Parsing a rendered UA gives back exactly the pair it was rendered from,
/// except that an unknown browser sends an empty UA, which reveals no OS
/// either (`fingerprint_matches_parsing_the_rendered_agent` pins this), so
/// the result is computed without building the string.
pub fn fingerprint(config: &ClientConfig) -> Fingerprint {
    let (browser, os) = match (config.hide_user_agent, config.browser) {
        // Passive fingerprinting (TCP/IP stack quirks) still reveals the
        // OS family for ordinary stacks.
        (true, _) => (Browser::Unknown, config.os),
        (false, Browser::Unknown) => (Browser::Unknown, Os::Unknown),
        (false, browser) => (browser, config.os),
    };
    let os = if config.spoof_system { Os::Unknown } else { os };
    Fingerprint { browser, os }
}

/// Identify the browser from a user-agent string. Order matters: most
/// Chromium derivatives embed the `Chrome/` token, so check the
/// distinguishing tokens first, exactly like real UA parsers.
pub fn parse_browser(ua: &str) -> Browser {
    if ua.is_empty() {
        Browser::Unknown
    } else if ua.contains("Vivaldi/") {
        Browser::Vivaldi
    } else if ua.contains("OPR/") || ua.contains("Opera") {
        Browser::Opera
    } else if ua.contains("Edge/") {
        Browser::Edge
    } else if ua.contains("Trident/") || ua.contains("MSIE") {
        Browser::Explorer
    } else if ua.contains("Iceweasel/") {
        Browser::Iceweasel
    } else if ua.contains("Firefox/") {
        Browser::Firefox
    } else if ua.contains("Chrome/") {
        Browser::Chrome
    } else {
        Browser::Unknown
    }
}

/// Identify the operating system from a user-agent string.
pub fn parse_os(ua: &str) -> Os {
    if ua.is_empty() {
        Os::Unknown
    } else if ua.contains("CrOS") {
        Os::ChromeOs
    } else if ua.contains("Android") {
        Os::Android
    } else if ua.contains("Windows") {
        Os::Windows
    } else if ua.contains("Mac OS X") {
        Os::MacOsX
    } else if ua.contains("Linux") {
        Os::Linux
    } else {
        Os::Unknown
    }
}

/// Sample an ordinary consumer browser/OS pair (used for the motley
/// paste-site and forum populations of Figure 5).
pub fn sample_consumer_client(rng: &mut Rng) -> (Browser, Os) {
    let os_weights = [0.62, 0.12, 0.08, 0.15, 0.03]; // Windows, Mac, Linux, Android, CrOS
    let os = Os::IDENTIFIABLE[rng.choose_weighted(&os_weights)];
    let browser = match os {
        Os::Android | Os::ChromeOs => Browser::Chrome,
        Os::Linux => *rng.choose(&[Browser::Firefox, Browser::Chrome, Browser::Iceweasel]),
        _ => {
            let weights = [0.35, 0.35, 0.08, 0.08, 0.08, 0.0, 0.06]; // per IDENTIFIABLE order
            Browser::IDENTIFIABLE[rng.choose_weighted(&weights)]
        }
    };
    (browser, os)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_pair() {
        for &browser in &Browser::IDENTIFIABLE {
            for &os in &Os::IDENTIFIABLE {
                let ua = render_user_agent(browser, os);
                assert_eq!(parse_browser(&ua), browser, "ua {ua}");
                assert_eq!(parse_os(&ua), os, "ua {ua}");
            }
        }
    }

    /// All 48 browser/OS pairs, each with every UA-hiding and
    /// system-spoofing choice, against what the server learns by parsing
    /// the UA the client would send.
    #[test]
    fn fingerprint_matches_parsing_the_rendered_agent() {
        let browsers = Browser::IDENTIFIABLE.iter().chain([&Browser::Unknown]);
        let mut pairs = 0;
        for &browser in browsers {
            for &os in Os::IDENTIFIABLE.iter().chain([&Os::Unknown]) {
                pairs += 1;
                for (hide_user_agent, spoof_system) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    let config = ClientConfig {
                        browser,
                        os,
                        hide_user_agent,
                        spoof_system,
                    };
                    let ua = (!hide_user_agent).then(|| render_user_agent(browser, os));
                    let want = Fingerprint {
                        browser: ua.as_deref().map_or(Browser::Unknown, parse_browser),
                        os: match &ua {
                            _ if spoof_system => Os::Unknown,
                            Some(ua) => parse_os(ua),
                            None => os,
                        },
                    };
                    assert_eq!(fingerprint(&config), want, "{config:?}");
                }
            }
        }
        assert_eq!(pairs, 48);
    }

    #[test]
    fn hidden_ua_yields_unknown_browser_but_fingerprintable_os() {
        let cfg = ClientConfig::stealth(Browser::Firefox, Os::Windows);
        let fp = fingerprint(&cfg);
        assert_eq!(fp.browser, Browser::Unknown);
        assert_eq!(fp.os, Os::Windows);
    }

    #[test]
    fn spoofed_system_hides_everything() {
        let cfg = ClientConfig {
            browser: Browser::Chrome,
            os: Os::Linux,
            hide_user_agent: true,
            spoof_system: true,
        };
        let fp = fingerprint(&cfg);
        assert_eq!(fp.browser, Browser::Unknown);
        assert_eq!(fp.os, Os::Unknown);
    }

    #[test]
    fn plain_client_fully_identified() {
        let cfg = ClientConfig::plain(Browser::Opera, Os::MacOsX);
        let fp = fingerprint(&cfg);
        assert_eq!(fp.browser, Browser::Opera);
        assert_eq!(fp.os, Os::MacOsX);
    }

    #[test]
    fn empty_ua_parses_to_unknown() {
        assert_eq!(parse_browser(""), Browser::Unknown);
        assert_eq!(parse_os(""), Os::Unknown);
    }

    #[test]
    fn chromium_derivatives_not_misparsed_as_chrome() {
        let opera = render_user_agent(Browser::Opera, Os::Windows);
        let edge = render_user_agent(Browser::Edge, Os::Windows);
        let vivaldi = render_user_agent(Browser::Vivaldi, Os::Windows);
        assert!(opera.contains("Chrome/"));
        assert_eq!(parse_browser(&opera), Browser::Opera);
        assert!(edge.contains("Chrome/"));
        assert_eq!(parse_browser(&edge), Browser::Edge);
        assert!(vivaldi.contains("Chrome/"));
        assert_eq!(parse_browser(&vivaldi), Browser::Vivaldi);
    }

    #[test]
    fn consumer_mix_mostly_windows() {
        let mut rng = Rng::seed_from(7);
        let mut windows = 0;
        let n = 10_000;
        for _ in 0..n {
            let (_, os) = sample_consumer_client(&mut rng);
            if os == Os::Windows {
                windows += 1;
            }
        }
        // Paper: "More than 50% of computers in the three categories ran
        // on Windows."
        assert!(windows as f64 / n as f64 > 0.5);
    }

    #[test]
    fn android_uses_chrome() {
        let mut rng = Rng::seed_from(8);
        for _ in 0..1000 {
            let (b, os) = sample_consumer_client(&mut rng);
            if os == Os::Android {
                assert_eq!(b, Browser::Chrome);
            }
        }
    }
}
